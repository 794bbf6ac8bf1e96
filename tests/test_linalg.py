import itertools
import random
from fractions import Fraction

import pytest

from grifcalc.errors import GrifcalcError, OutOfRange
from grifcalc.linalg import (
    DEFAULT_PRIME,
    FRACTION_FIELD,
    ModPField,
    RowReducer,
    _PRIME_LIMIT,
    _is_prime,
    determinant,
    fraction_mod_p,
    kernel_basis,
    rank,
    rank_and_kernel,
    rref,
    solve,
)
from grifcalc.scalar import ONE, ZERO, Scalar


def dense_to_rows(mat):
    rows = []
    for r in mat:
        rows.append({j: Fraction(v) for j, v in enumerate(r) if v})
    return rows


def permanent_free_det(mat):
    # Leibniz expansion, independent oracle for small matrices
    n = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(mat[i][perm[i]])
        total += sign * prod
    return total


def test_rref_identity():
    rows = dense_to_rows([[1, 0], [0, 1]])
    pr = rref(rows, FRACTION_FIELD)
    assert [pc for pc, _ in pr] == [0, 1]
    assert pr[0][1] == {0: 1}


def test_rank_and_kernel_small():
    rows = dense_to_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, kern = rank_and_kernel(rows, 3, FRACTION_FIELD)
    assert r == 2
    assert len(kern) == 1
    v = kern[0]
    for row in rows:
        s = sum(row.get(c, Fraction(0)) * v.get(c, Fraction(0)) for c in set(row) | set(v))
        assert s == 0


def test_kernel_vectors_satisfy_system_randomized():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows = dense_to_rows(mat)
        r, kern = rank_and_kernel(rows, n, FRACTION_FIELD)
        assert r + len(kern) == n
        for v in kern:
            for row in rows:
                s = sum(row.get(c, Fraction(0)) * val for c, val in v.items())
                assert s == 0


def test_determinant_matches_leibniz_randomized():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        got = determinant(dense_to_rows(mat), n, FRACTION_FIELD)
        assert got == permanent_free_det(mat)


def test_determinant_symbolic():
    a = Scalar.param("a")
    b = Scalar.param("b")
    rows = [{0: a, 1: b}, {0: b, 1: a}]
    det = determinant(rows, 2, FRACTION_FIELD)
    assert det == a * a - b * b


def test_solve_small():
    rows = dense_to_rows([[2, 1], [1, 3]])
    x = solve(rows, 2, [Fraction(5), Fraction(10)], FRACTION_FIELD)
    assert x == [Fraction(1), Fraction(3)]


def test_solve_randomized_round_trip():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 5)
        while True:
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if permanent_free_det(mat) != 0:
                break
        xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(Fraction(mat[i][j]) * xs[j] for j in range(n)) for i in range(n)]
        got = solve(dense_to_rows(mat), n, rhs, FRACTION_FIELD)
        assert got == xs


def test_solve_accepts_a_system_whose_right_hand_side_is_a_pivot():
    # Markowitz pivoting on [A | rhs] picks the rhs column here; that must
    # not make a nonsingular system look inconsistent
    x = solve([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, [1, 0], FRACTION_FIELD)
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_solve_matches_determinant_on_sparse_systems():
    rng = random.Random(31)
    singular = 0
    for _ in range(1200):
        n = rng.randint(1, 6)
        rows = [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for j in range(n) if rng.random() < 0.4} for _ in range(n)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        rhs = [Fraction(rng.randint(-4, 4)) if rng.random() < 0.4
               else Fraction(0) for _ in range(n)]
        if determinant(rows, n, FRACTION_FIELD):
            x = solve(rows, n, rhs, FRACTION_FIELD)
            assert [sum(v * x[j] for j, v in r.items()) for r in rows] == rhs
        else:
            singular += 1
            with pytest.raises(ValueError):
                solve(rows, n, rhs, FRACTION_FIELD)
    # both branches are exercised in bulk
    assert 200 < singular < 1000


def test_mod_p_rank_never_exceeds_exact():
    rng = random.Random(3)
    gf = ModPField(DEFAULT_PRIME)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        exact = rank(dense_to_rows(mat), FRACTION_FIELD)
        rows_p = [{j: v % DEFAULT_PRIME for j, v in enumerate(r) if v % DEFAULT_PRIME}
                  for r in mat]
        modp = rank(rows_p, gf)
        assert modp <= exact
        # entries this small cannot hit a bad prime of magnitude 2^31-1
        assert modp == exact


def test_row_reducer_matches_batch_rank():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows = dense_to_rows(mat)
        red = RowReducer(FRACTION_FIELD)
        for r in rows:
            red.add(dict(r))
        assert red.rank == rank(rows, FRACTION_FIELD)


def test_row_reducer_rejects_a_pivot_that_does_not_normalize():
    # GF(6) is not a field: 2 has no inverse, so the pivot cannot become 1
    # and reduce would never clear its column
    ring = object.__new__(ModPField)
    ring.p, ring.zero, ring.one = 6, 0, 1
    red = RowReducer(ring)
    with pytest.raises(ArithmeticError):
        red.add({0: 2})
    assert red.rank == 0


def test_row_reducer_contains():
    red = RowReducer(FRACTION_FIELD)
    red.add({0: Fraction(1), 1: Fraction(2)})
    red.add({1: Fraction(1)})
    assert red.contains({0: Fraction(3), 1: Fraction(1)})
    assert not red.contains({2: Fraction(1)})


def test_rref_deterministic():
    rng = random.Random(21)
    mat = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    rows = dense_to_rows(mat)
    a = rref([dict(r) for r in rows], FRACTION_FIELD)
    b = rref([dict(r) for r in rows], FRACTION_FIELD)
    assert a == b


def test_kernel_basis_unit_at_free_column():
    rows = dense_to_rows([[1, 1, 0, 2]])
    pr = rref(rows, FRACTION_FIELD)
    kern = kernel_basis(pr, 4, FRACTION_FIELD)
    free = [min(v) if 0 not in v else None for v in kern]
    assert len(kern) == 3
    for v in kern:
        cols = sorted(v)
        f = [c for c in cols if v[c] == 1]
        assert f


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    for n in range(5000):
        assert _is_prime(n) == trial(n), n


def test_mod_p_field_rejects_composite_moduli():
    for p in (DEFAULT_PRIME, 2, 3, 2 ** 61 - 1):
        assert ModPField(p).p == p
    strong_pseudoprimes = (
        561,                          # Carmichael number
        3215031751,                   # strong pseudoprime to bases 2, 3, 5, 7
        318665857834031151167461,     # strong pseudoprime to bases 2 .. 37
    )
    for p in (0, 1, 4, 6, 9, 2 ** 31 + 1) + strong_pseudoprimes:
        with pytest.raises(OutOfRange):
            ModPField(p)
    with pytest.raises(OutOfRange):
        ModPField(_PRIME_LIMIT)  # beyond the range the test is exact on


def test_fraction_mod_p_pole_is_a_domain_error():
    assert fraction_mod_p(Fraction(1, 7), 5) == 3
    with pytest.raises(GrifcalcError):
        fraction_mod_p(Fraction(1, 7), 7)


class _ScalarOnlyField:
    """Oracle: the field of Scalars alone, as linalg had it before Fraction
    and Scalar entries shared FRACTION_FIELD."""

    zero = ZERO
    one = ONE

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a.is_zero()


SCALAR_ONLY_FIELD = _ScalarOnlyField()


def _random_rational_rows(rng, nrows, ncols, rank_cap):
    # rank at most rank_cap: rows are rational combinations of rank_cap
    # sparse random rows
    base = []
    for _ in range(rank_cap):
        base.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     if rng.random() < 0.6 else Fraction(0)
                     for _ in range(ncols)])
    rows = []
    for _ in range(nrows):
        mix = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
               for _ in range(rank_cap)]
        dense = [sum(m * b[j] for m, b in zip(mix, base)) for j in range(ncols)]
        rows.append({j: v for j, v in enumerate(dense) if v})
    return rows


def _as_scalars(rows):
    return [{c: Scalar.from_fraction(v) for c, v in r.items()} for r in rows]


def test_fraction_field_matches_scalar_only_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 5)
        ncols = rng.randint(n, 6)
        rows = _random_rational_rows(rng, n, ncols, rng.randint(1, n))
        srows = _as_scalars(rows)
        cases = [(rows, FRACTION_FIELD), (srows, FRACTION_FIELD)]
        want = rref(srows, SCALAR_ONLY_FIELD)
        for rows_in, field in cases:
            got = rref(rows_in, field)
            assert got == want
            r, kern = rank_and_kernel(rows_in, ncols, field)
            assert r == rank(srows, SCALAR_ONLY_FIELD) == len(want)
            assert kern == kernel_basis(want, ncols, SCALAR_ONLY_FIELD)
        assert all(isinstance(v, Fraction)
                   for _, prow in rref(rows, FRACTION_FIELD)
                   for v in prow.values())
        square = [{c: v for c, v in r.items() if c < n} for r in rows]
        ssquare = _as_scalars(square)
        det = determinant(ssquare, n, SCALAR_ONLY_FIELD)
        for rows_in in (square, ssquare):
            assert determinant(rows_in, n, FRACTION_FIELD) == det
        if det:
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(n)]
            x = solve(ssquare, n, [Scalar.from_fraction(v) for v in rhs],
                      SCALAR_ONLY_FIELD)
            assert solve(square, n, rhs, FRACTION_FIELD) == x
            assert solve(ssquare, n, rhs, FRACTION_FIELD) == x
        oracle = RowReducer(SCALAR_ONLY_FIELD)
        reducers = [(RowReducer(FRACTION_FIELD), rows),
                    (RowReducer(FRACTION_FIELD), srows)]
        for i, srow in enumerate(srows):
            grew = oracle.add(srow)
            for red, rows_in in reducers:
                assert red.add(rows_in[i]) == grew
                assert red.pivots == oracle.pivots
        probe = {c: Fraction(rng.randint(-2, 2)) for c in range(ncols)}
        for red, _ in reducers:
            assert red.contains(probe) == oracle.contains(_as_scalars([probe])[0])


def test_fraction_field_matches_scalar_only_oracle_with_parameters():
    a, b = Scalar.param("a"), Scalar.param("b")
    rows = [{0: a, 1: Fraction(1), 2: b},
            {0: Fraction(1, 2), 1: a + b, 2: Fraction(0)},
            {0: a * b, 2: Fraction(-3)}]
    srows = [{c: v if isinstance(v, Scalar) else Scalar.from_fraction(v)
              for c, v in r.items()} for r in rows]
    assert rref(rows, FRACTION_FIELD) == rref(srows, SCALAR_ONLY_FIELD)
    assert (determinant(rows, 3, FRACTION_FIELD)
            == determinant(srows, 3, SCALAR_ONLY_FIELD))
    rhs = [Fraction(1), a, Fraction(0)]
    assert (solve(rows, 3, rhs, FRACTION_FIELD)
            == solve(srows, 3, [ONE, a, ZERO], SCALAR_ONLY_FIELD))
