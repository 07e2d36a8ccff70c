import random
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

import pytest

from poisson_forge.linalg import ExactMatrix, QEchelon, integer_row
from poisson_forge.rationals import Q, exact


class FractionEchelon:
    """The rational echelon the integer QEchelon replaced, kept as its
    reference: verbatim apart from the class name and the uncalled
    `residual` method."""

    __slots__ = ("rows", "track", "count", "pivots")

    def __init__(self, track=False):
        self.rows = {}     # pivot col -> (main dict, aug dict)
        self.track = track
        self.count = 0
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec, aug):
        # invariant: each stored row satisfies main = sum raug[i] * generator_i,
        # so reducing vec by t*main subtracts t*raug from its expansion
        for p in self.pivots:
            t = vec.get(p)
            if not t:
                continue
            main, raug = self.rows[p]
            t = t / main[p]
            for j, v in main.items():
                nv = vec.get(j, Q(0)) - t * v
                if nv:
                    vec[j] = nv
                else:
                    vec.pop(j, None)
            if aug is not None:
                for j, v in raug.items():
                    nv = aug.get(j, Q(0)) - t * v
                    if nv:
                        aug[j] = nv
                    else:
                        aug.pop(j, None)
        return vec, aug

    def insert(self, vec):
        """Insert generator; its coordinate index is the insertion count."""
        v = {j: Q(c) for j, c in dict(vec).items() if c}
        aug = {self.count: Q(1)} if self.track else None
        self.count += 1
        v, aug = self._reduce(v, aug)
        if not v:
            return False
        p = min(v)
        self.rows[p] = (v, aug if aug is not None else {})
        insort(self.pivots, p)
        return True

    def solve(self, vec):
        """Coordinates of vec over the inserted generators, or None.

        Requires track=True.  The returned dict maps generator index ->
        rational coefficient with vec = sum coeff * generator.
        """
        if not self.track:
            raise ValueError("echelon was built without coordinate tracking")
        v = {j: Q(c) for j, c in dict(vec).items() if c}
        v, aug = self._reduce(v, {})
        if v:
            return None
        return {j: -c for j, c in aug.items()}

    def clone(self):
        """Snapshot sharing the (immutable) stored rows."""
        out = FractionEchelon(track=self.track)
        out.rows = dict(self.rows)
        out.count = self.count
        out.pivots = list(self.pivots)
        return out

    def contains(self, vec):
        v = {j: Q(c) for j, c in dict(vec).items() if c}
        v, _ = self._reduce(v, None)
        return not v


# Matrix and echelon helpers that only the tests use.


def from_entries(rows, cols, entries):
    """The rows x cols matrix of {(row, col): value}, zeros dropped."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        v = exact(v)
        if v:
            columns[c][r] = v
    return ExactMatrix(columns, rows)


def from_rows(rowvecs, cols):
    entries = {}
    for r, row in enumerate(rowvecs):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
    return from_entries(len(rowvecs), cols, entries)


def transpose(m):
    return from_entries(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def is_zero(m):
    return not any(m.columns)


def apply(m, vec):
    """Matrix times sparse column vector, reading only the columns vec uses."""
    out = {}
    for c, x in vec.items():
        for r, v in m.columns[c].items():
            out[r] = out.get(r, 0) + v * x
    return {r: s for r, s in out.items() if s}


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return ExactMatrix([apply(a, col) for col in b.columns], a.rows)


def rank(m):
    return m.echelon().rank


# the first coordinate column of SpanSolver, past every slice column
AUG = 1 << 40


class SpanSolver:
    """Coordinates over inserted generators, read off `QEchelon.residual`.

    Generator i enters as g_i + e_(AUG + i), a unit entry at its own
    column past every slice column, where no row ever has a pivot, so each
    stored row carries its coordinates over the generators.  A target v
    enters as v + e_M, M the next free column: its residual has no slice
    entry iff v lies in the span, and then it is s e_M - sum c_i e_(AUG + i)
    with s*v = sum c_i g_i.  A dependent generator is not stored, so the
    coordinates are over the independent ones, as in a tracked rational
    echelon.  `base` starts the rows as those of an echelon with no
    coordinates, so that solving is modulo its span.
    """

    def __init__(self, base=None):
        self.ech = QEchelon()
        if base is not None:
            self.ech.rows = dict(base.rows)
        self.count = 0

    @property
    def rank(self):
        return self.ech.rank

    def _residual(self, vec, i):
        return self.ech.residual({**vec, AUG + i: 1})

    @staticmethod
    def _read(res, i):
        """(s, coords) off the residual of a target with marker index i, or
        None, leaving res as it is, when it has a slice entry."""
        if min(res) < AUG:
            return None
        s = res.pop(AUG + i)
        g = gcd(s, *res.values())
        return s // g, {j - AUG: -c // g for j, c in res.items()}

    def relation(self, vec):
        """Insert vec as generator `count`: None if it raised the rank, else
        (s, coords) with s*vec = sum coords[i] * generator_i."""
        i = self.count
        self.count += 1
        res = self._residual(vec, i)
        rel = self._read(res, i)
        if rel is None:
            self.ech._store(res)
        return rel

    def insert(self, vec):
        return self.relation(vec) is None

    def solve(self, vec):
        """(s, coords) with s*vec = sum coords[i] * generator_i, or None: s a
        positive int, coords generator index -> nonzero int, gcd 1."""
        return self._read(self._residual(vec, self.count), self.count)


def kernel_basis(m):
    """Exact basis of the right kernel, as sparse dicts col -> rational.

    Column c gives a kernel vector exactly when it lies in the span of
    the columns before it.  Each column is reduced once, as generator c:
    a dependent one leaves the relation s*col_c = sum coords[j]*col_j.
    """
    solver = SpanSolver()
    basis = []
    for c, col in enumerate(m.columns):
        rel = solver.relation(col)
        if rel is not None:
            s, coords = rel
            vec = {c: Q(1)}
            for j, x in coords.items():
                vec[j] = Q(-x, s)
            basis.append(vec)
    return basis


def clone(ech):
    """Snapshot of a QEchelon sharing its (immutable) stored rows."""
    out = QEchelon()
    out.rows = dict(ech.rows)
    return out


def _random_scalar(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return rng.randint(-4, 4)


def _random_vectors(rng, dim, count):
    """Sparse vectors with rational entries, combinations of earlier ones,
    exact repeats and empty vectors mixed in."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if out and roll < 0.25:
            picks = rng.sample(out, min(len(out), rng.randint(1, 3)))
            vec = {}
            for old in picks:
                c = _random_scalar(rng) or 1
                for j, x in old.items():
                    vec[j] = vec.get(j, 0) + c * x
            vec = {j: x for j, x in vec.items() if x}
        elif out and roll < 0.35:
            vec = dict(rng.choice(out))
        elif roll < 0.42:
            vec = {}
        else:
            cols = rng.sample(range(dim), rng.randint(1, min(dim, 5)))
            vec = {j: _random_scalar(rng) for j in cols}
            vec = {j: x for j, x in vec.items() if x}
        out.append(vec)
    return out


def _same_span_rows(ech, ref):
    """Each integer row is a primitive, positive-pivot multiple of the reference row."""
    assert list(ech.rows) == list(ref.rows)
    for p, (main, empty) in ech.rows.items():
        rmain, _ = ref.rows[p]
        assert main[p] > 0 and empty == ()
        assert all(isinstance(x, int) for x in main.values())
        assert gcd(*main.values()) == 1
        scale = rmain[p] / main[p]
        assert list(rmain.items()) == [(j, scale * x) for j, x in main.items()]


def test_integer_echelon_matches_fraction_reference():
    rng = random.Random(2024)
    for _ in range(40):
        dim = rng.randint(1, 9)
        gens = _random_vectors(rng, dim, rng.randint(0, 12))
        probes = _random_vectors(rng, dim, 6) + gens[:3]
        ech, ref = QEchelon(), FractionEchelon()
        for i, g in enumerate(gens):
            assert ech.insert(g) == ref.insert(g)
            assert ech.rank == ref.rank
            if i == len(gens) // 2:
                # a snapshot grows on its own without touching the original
                snap, rsnap = clone(ech), ref.clone()
                extra = _random_vectors(rng, dim, 3)
                assert ([snap.insert(v) for v in extra]
                        == [rsnap.insert(v) for v in extra])
                _same_span_rows(snap, rsnap)
        _same_span_rows(ech, ref)
        for v in probes:
            assert ech.contains(v) == ref.contains(v)


def test_span_solver_matches_the_fraction_reference():
    rng = random.Random(2025)
    for _ in range(40):
        dim = rng.randint(1, 9)
        gens = _random_vectors(rng, dim, rng.randint(0, 12))
        probes = _random_vectors(rng, dim, 6) + gens[:3]
        solver, ref = SpanSolver(), FractionEchelon(track=True)
        for g in gens:
            assert solver.insert(g) == ref.insert(g)
            assert solver.rank == ref.rank
            assert solver.count == ref.count
        for v in probes:
            got, want = solver.solve(v), ref.solve(v)
            if want is None:
                assert got is None
            else:
                s, coords = got
                assert s > 0 and gcd(s, *coords.values()) == 1
                assert all(type(c) is int and c for c in coords.values())
                assert ([(j, Q(c, s)) for j, c in coords.items()]
                        == list(want.items()))


def test_integer_echelon_rejects_floats():
    ech = QEchelon()
    ech.insert({0: 1, 1: Q(1, 2)})
    for call in (ech.insert, ech.contains, ech.residual):
        with pytest.raises(TypeError):
            call({0: 1, 1: 0.5})
    assert ech.rank == 1


def test_integer_row_matches_the_lcm_reference():
    # int and Fraction mixes, zeros and Fractions of denominator 1 among them
    rng = random.Random(5)
    for _ in range(200):
        vec = {j: rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9),
                                                              rng.randint(1, 4))])
               for j in rng.sample(range(12), rng.randint(0, 6))}
        den = lcm(1, *(Fraction(c).denominator for c in vec.values()))
        want = {j: den * c for j, c in vec.items() if c}
        got = integer_row(vec)
        assert got == want
        assert all(type(c) is int for c in got.values())
    for vec in ({0: 0.5}, {0: 1, 1: 0.5}, {0: Q(1, 2), 3: 2.0}):
        with pytest.raises(TypeError):
            integer_row(vec)


def test_integer_row_leaves_the_stored_columns_intact():
    columns = [{0: 3, 2: -1}, {0: 6, 1: 4, 2: -2}, {1: 2}]
    stored = [dict(c) for c in columns]
    row = integer_row(columns[0])
    row[0] = 99
    del row[2]
    m = ExactMatrix(columns, 3)
    assert m.echelon().rank == 2
    assert apply(m, {0: 1, 2: 1}) == {0: 3, 1: 2, 2: -1}
    assert m.columns == stored


def test_residual_modulo_the_base_matches_the_fraction_reference():
    # B a random rational span: the residual of v is empty iff v lies in
    # span(B), has no entry at a pivot of B and lies in span(B + {v}); the
    # residuals of a list G have rank rank(B + G) - rank(B)
    rng = random.Random(77)
    for _ in range(60):
        dim = rng.randint(1, 9)
        vecs = _random_vectors(rng, dim, rng.randint(0, 14))
        cut = rng.randint(0, len(vecs))
        base_gens, gens = vecs[:cut], vecs[cut:]
        probes = _random_vectors(rng, dim, 6) + gens[:3] + base_gens[:3]
        base, ref = QEchelon(), FractionEchelon()
        for b in base_gens:
            base.insert(b)
            ref.insert(b)
        before = {p: dict(m) for p, (m, _) in base.rows.items()}
        for v in probes + gens:
            res = base.residual(v)
            assert (not res) == ref.contains(v)
            assert all(type(c) is int and c for c in res.values())
            assert not set(res) & set(base.rows)
            with_v = ref.clone()
            with_v.insert(v)
            assert with_v.contains(res)
            # a multiple of the rational reduction of v, which is unique
            want, _ = ref.clone()._reduce({j: Q(c) for j, c in v.items() if c},
                                          None)
            assert set(want) == set(res)
            assert all(want[j] * res[p] == want[p] * res[j]
                       for p in list(res)[:1] for j in res)
        residuals = QEchelon()
        for g in gens:
            residuals.insert(base.residual(g))
        rank_b = ref.rank
        for g in gens:
            ref.insert(g)
        assert residuals.rank == ref.rank - rank_b
        assert {p: dict(m) for p, (m, _) in base.rows.items()} == before


def _residual_scale(base, ref_base, vec):
    """k with base.residual(vec) = k * (vec reduced by the rational
    reference of the same span), or 1 when vec lies in the span."""
    res = base.residual(vec)
    if not res:
        return Q(1)
    want, _ = ref_base.clone()._reduce({j: Q(c) for j, c in vec.items() if c},
                                       None)
    p = min(res)
    return Q(res[p]) / want[p]


@pytest.mark.parametrize("via_residuals", [False, True])
def test_quotient_solves_modulo_the_base(via_residuals):
    # coordinates of v over G modulo span(B): v - sum c_i g_i lies in
    # span(B), read either off a solver started from B's rows or, as the
    # homology classes are, off the residuals of G and v modulo B
    rng = random.Random(77 + via_residuals)
    for _ in range(40):
        dim = rng.randint(1, 9)
        vecs = _random_vectors(rng, dim, rng.randint(0, 14))
        cut = rng.randint(0, len(vecs))
        base_gens, gens = vecs[:cut], vecs[cut:]
        probes = _random_vectors(rng, dim, 6) + gens[:3] + base_gens[:3]
        base, ref = QEchelon(), FractionEchelon()
        for b in base_gens:
            base.insert(b)
            ref.insert(b)
        ref_base = ref.clone()
        before = {p: dict(m) for p, (m, _) in base.rows.items()}
        quo = SpanSolver() if via_residuals else SpanSolver(base)
        # the residuals span only the part of span(B + G) past span(B)
        offset = ref_base.rank if via_residuals else 0
        assert quo.count == 0
        for g in gens:
            assert quo.insert(base.residual(g) if via_residuals else g) \
                == ref.insert(g)
            assert quo.rank == ref.rank - offset
        assert quo.count == len(gens)
        for v in probes:
            if via_residuals:
                coords = rational_solve(quo, base.residual(v))
            else:
                coords = rational_solve(quo, v)
            assert (coords is None) == (not ref.contains(v))
            if coords is None:
                continue
            # only G carries coordinates
            assert set(coords) <= set(range(len(gens)))
            if via_residuals:
                # k_v res(v) = sum c_i k_i res(g_i) up to the residual scales
                k_v = _residual_scale(base, ref_base, v)
                coords = {i: c * _residual_scale(base, ref_base, gens[i]) / k_v
                          for i, c in coords.items()}
            rest = dict(v)
            for i, c in coords.items():
                for j, x in gens[i].items():
                    rest[j] = rest.get(j, 0) - c * x
            assert base.contains(rest)
        assert {p: dict(m) for p, (m, _) in base.rows.items()} == before
    with pytest.raises(TypeError):
        quo.insert({0: 0.5})
    with pytest.raises(TypeError):
        quo.solve({0: 0.5})


def test_kernel_basis_on_rational_matrices():
    rng = random.Random(17)
    for _ in range(30):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 8)
        entries = {(r, c): _random_scalar(rng)
                   for r in range(rows) for c in range(cols)
                   if rng.random() < 0.5}
        if rng.random() < 0.3 and cols > 2:
            # column 0 repeated as the last column, column 1 zero
            for r in range(rows):
                entries.pop((r, 1), None)
                if (r, 0) in entries:
                    entries[(r, cols - 1)] = entries[(r, 0)]
                else:
                    entries.pop((r, cols - 1), None)
        m = from_entries(rows, cols, entries)
        kernel = kernel_basis(m)
        assert len(kernel) == cols - rank(m)
        for v in kernel:
            assert apply(m, v) == {}


def test_rank_kernel_examples():
    ident = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    kernel = kernel_basis(ident)
    assert rank(ident) == 3 and kernel == []

    zero = from_entries(2, 5, {})
    kernel = kernel_basis(zero)
    assert rank(zero) == 0 and len(kernel) == 5

    m = from_rows([[1, 2], [2, 4]], 2)
    kernel = kernel_basis(m)
    assert rank(m) == 1 and len(kernel) == 1
    v = kernel[0]
    # spanned by (2, -1): proportionality check
    assert v[0] * (-1) == v[1] * 2


def test_kernel_basis_reduces_each_column_once(monkeypatch):
    calls = []
    reduce = QEchelon._reduce

    def counted(self, vec):
        calls.append(len(vec))
        reduce(self, vec)

    monkeypatch.setattr(QEchelon, "_reduce", counted)
    m = from_rows([[1, 2, 0, 3], [2, 4, 1, 6]], 4)
    kernel = kernel_basis(m)
    assert len(calls) == m.cols
    assert kernel == [{1: 1, 0: -2}, {3: 1, 0: -3}]


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(15):
        rows, cols = rng.randrange(2, 7), rng.randrange(2, 7)
        entries = {(r, c): rng.randint(-3, 3)
                   for r in range(rows) for c in range(cols)
                   if rng.random() < 0.5}
        m = from_entries(rows, cols, entries)
        kernel = kernel_basis(m)
        assert rank(m) + len(kernel) == cols
        for v in kernel:
            assert apply(m, v) == {}


def test_rank_equals_transpose_rank():
    rng = random.Random(5)
    for _ in range(15):
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 8)
        entries = {(r, c): rng.randint(-5, 5)
                   for r in range(rows) for c in range(cols)
                   if rng.random() < 0.4}
        m = from_entries(rows, cols, entries)
        assert rank(m) == rank(transpose(m))


def test_rank_invariant_under_permutation():
    rng = random.Random(9)
    rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(5)]
    m = from_rows(rows, 6)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    m2 = from_rows(shuffled, 6)
    assert rank(m) == rank(m2)
    k1, k2 = kernel_basis(m), kernel_basis(m2)
    # same span, verified by mutual membership
    e1 = QEchelon()
    for v in k1:
        e1.insert(v)
    e2 = QEchelon()
    for v in k2:
        e2.insert(v)
    assert all(e1.contains(v) for v in k2)
    assert all(e2.contains(v) for v in k1)


def rational_solve(solver, vec):
    """The rational coordinates of `SpanSolver.solve`, or None."""
    solution = solver.solve(vec)
    if solution is None:
        return None
    s, coords = solution
    return {j: Q(c, s) for j, c in coords.items()}


def solve_in_span(v, span):
    """Coordinates of v over the span's vectors, or None."""
    solver = SpanSolver()
    for g in span:
        solver.insert(g)
    return rational_solve(solver, v)


def test_membership_examples():
    assert solve_in_span({}, [{0: 1}, {1: 1}]) == {}
    assert solve_in_span({0: 1, 1: 1}, [{0: 1}, {1: 1}]) == {0: 1, 1: 1}
    assert solve_in_span({0: 1, 1: 2, 2: 3}, [{0: 1}, {1: 1}]) is None


def test_membership_coordinates_recombine():
    rng = random.Random(13)
    for _ in range(10):
        gens = [{j: c for j in range(5) if (c := rng.randint(-3, 3))}
                for _ in range(4)]
        coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        target = {j: t for j in range(5)
                  if (t := sum(c * g.get(j, 0) for c, g in zip(coeffs, gens)))}
        got = solve_in_span(target, gens)
        assert got is not None
        rebuilt = {j: t for j in range(5)
                   if (t := sum(c * gens[i].get(j, 0) for i, c in got.items()))}
        assert rebuilt == target


def test_matmul_and_apply():
    a = from_rows([[1, 2], [3, 4]], 2)
    b = from_rows([[0, 1], [1, 0]], 2)
    ab = matmul(a, b)
    assert ab.entries == {(0, 0): 2, (0, 1): 1, (1, 0): 4, (1, 1): 3}
    assert apply(a, {0: 1, 1: 1}) == {0: 3, 1: 7}

