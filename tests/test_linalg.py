import itertools
import random
import time
from fractions import Fraction

import pytest

from grifcalc.errors import GrifcalcError, OutOfRange
from grifcalc.linalg import (
    DEFAULT_PRIME,
    FRACTION_FIELD,
    SCALAR_FIELD,
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
from grifcalc.scalar import Scalar


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
    det = determinant(rows, 2, SCALAR_FIELD)
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


def test_composite_modulus_fails_fast_in_span_rank():
    from grifcalc.mulkernel import span_equals_kernel
    for p in (4, 6, 9):
        start = time.perf_counter()
        with pytest.raises(OutOfRange):
            span_equals_kernel(8, prime=p)
        assert time.perf_counter() - start < 1.0


def test_fraction_mod_p_pole_is_a_domain_error():
    assert fraction_mod_p(Fraction(1, 7), 5) == 3
    with pytest.raises(GrifcalcError):
        fraction_mod_p(Fraction(1, 7), 7)
