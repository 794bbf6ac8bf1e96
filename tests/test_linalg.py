import itertools
import random
from fractions import Fraction

import pytest

from grifcalc.invariant import distinguished_triple, iso_matrix
from grifcalc.jacobian import HomogeneousPolynomial, monomials_of_degree
from grifcalc.linalg import (
    FRACTION_FIELD,
    RowReducer,
    _domain,
    _eliminate,
    determinant,
    kernel_basis,
    rank,
    rank_and_kernel,
    rref,
    solve,
)
from grifcalc.scalar import ONE, ZERO, ParamPolynomial, Scalar


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
    r, kern = rank_and_kernel(rows, 3)
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
        r, kern = rank_and_kernel(rows, n)
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
        got = determinant(dense_to_rows(mat), n)
        assert got == permanent_free_det(mat)


def test_determinant_symbolic():
    a = Scalar.param("a")
    b = Scalar.param("b")
    rows = [{0: a, 1: b}, {0: b, 1: a}]
    det = determinant(rows, 2)
    assert det == a * a - b * b


def test_solve_small():
    rows = dense_to_rows([[2, 1], [1, 3]])
    x = solve(rows, 2, [Fraction(5), Fraction(10)])
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
        got = solve(dense_to_rows(mat), n, rhs)
        assert got == xs


def test_solve_accepts_a_system_whose_right_hand_side_is_a_pivot():
    # Markowitz pivoting on [A | rhs] picks the rhs column here; that must
    # not make a nonsingular system look inconsistent
    x = solve([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, [1, 0])
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_determinant_and_solve_reject_a_matrix_that_is_not_n_by_n():
    # a column outside range(n), or a right-hand side of another length,
    # is an error, not a determinant of the wrong matrix or an IndexError
    for call in (lambda: determinant([{0: 1}, {5: 1}], 2),
                 lambda: determinant([{0: 1}, {-1: 1}], 2),
                 lambda: solve([{0: 1}, {2: 1}], 2, [1, 1]),
                 lambda: solve([{0: 1}, {1: 1}], 2, [1])):
        with pytest.raises(ValueError, match="range|length"):
            call()


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
        if determinant(rows, n):
            x = solve(rows, n, rhs)
            assert [sum(v * x[j] for j, v in r.items()) for r in rows] == rhs
        else:
            singular += 1
            with pytest.raises(ValueError):
                solve(rows, n, rhs)
    # both branches are exercised in bulk
    assert 200 < singular < 1000


def test_row_reducer_matches_batch_rank():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rows = dense_to_rows(mat)
        red = RowReducer(FRACTION_FIELD)
        for r in rows:
            red.add(dict(r))
        assert red.rank == rank(rows)


class _IntegersMod6:
    """The ring Z/6 on ints in [0, 6).  Its units 1 and 5 are their own
    inverses, so div(a, b) = a * b is right exactly when b is a unit."""

    zero, one = 0, 1

    @staticmethod
    def is_zero(a):
        return a % 6 == 0

    @staticmethod
    def sub(a, b):
        return (a - b) % 6

    @staticmethod
    def mul(a, b):
        return a * b % 6

    @staticmethod
    def div(a, b):
        return a * b % 6


def test_row_reducer_rejects_a_pivot_that_does_not_normalize():
    # Z/6 is not a field: 2 has no inverse, so the pivot cannot become 1
    # and reduce would never clear its column
    red = RowReducer(_IntegersMod6())
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


def test_float_entries_are_not_taken_as_exact():
    # 0.5 is exactly representable, but a float is not an exact value, and
    # a bool is no int entry: True would count as 1 and -True as -1
    for value in (0.5, True):
        with pytest.raises(TypeError):
            rank([{0: value}])
        with pytest.raises(TypeError):
            determinant([{0: value}], 1)
        with pytest.raises(TypeError):
            solve([{0: 1}], 1, [value])
    # a zero is checked too, before it is dropped
    for call in (lambda: rank([{0: 0.0}]), lambda: rank([{0: False}]),
                 lambda: determinant([{0: 0.0}], 1),
                 lambda: rref([{0: 2, 1: False}], FRACTION_FIELD)):
        with pytest.raises(TypeError):
            call()
    # RowReducer checks every entry, zeros included, the same way
    for value in (0.5, True, 0.0, False):
        with pytest.raises(TypeError):
            RowReducer(FRACTION_FIELD).add({0: value, 1: 1})
        with pytest.raises(TypeError):
            RowReducer(FRACTION_FIELD).contains({0: value})
    assert rank([{0: Fraction(1, 2)}]) == 1
    assert determinant([{0: Fraction(1, 2)}], 1) == Fraction(1, 2)
    assert solve([{0: 2}], 1, ["1/2"]) == [Fraction(1, 4)]


def test_kernel_basis_unit_at_free_column():
    rows = dense_to_rows([[1, 1, 0, 2]])
    pr = rref(rows, FRACTION_FIELD)
    kern = kernel_basis(pr, 4)
    free = [min(v) if 0 not in v else None for v in kern]
    assert len(kern) == 3
    for v in kern:
        cols = sorted(v)
        f = [c for c in cols if v[c] == 1]
        assert f


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
        want = fraction_rref(srows, SCALAR_ONLY_FIELD)
        for rows_in in (rows, srows):
            got = rref(rows_in, FRACTION_FIELD)
            assert got == want
            r, kern = rank_and_kernel(rows_in, ncols)
            assert r == rank(rows_in) == len(want)
            assert kern == fraction_kernel_basis(want, ncols,
                                                 SCALAR_ONLY_FIELD)
        assert all(isinstance(v, Fraction)
                   for _, prow in rref(rows, FRACTION_FIELD)
                   for v in prow.values())
        square = [{c: v for c, v in r.items() if c < n} for r in rows]
        ssquare = _as_scalars(square)
        det = fraction_determinant(ssquare, n, SCALAR_ONLY_FIELD)
        for rows_in in (square, ssquare):
            assert determinant(rows_in, n) == det
        if det:
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(n)]
            x = fraction_solve(ssquare, n,
                               [Scalar.from_fraction(v) for v in rhs],
                               SCALAR_ONLY_FIELD)
            assert solve(square, n, rhs) == x
            assert solve(ssquare, n, rhs) == x
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
    assert (rref(rows, FRACTION_FIELD)
            == fraction_rref(srows, SCALAR_ONLY_FIELD))
    assert (determinant(rows, 3)
            == fraction_determinant(srows, 3, SCALAR_ONLY_FIELD))
    rhs = [Fraction(1), a, Fraction(0)]
    assert (solve(rows, 3, rhs)
            == fraction_solve(srows, 3, [ONE, a, ZERO], SCALAR_ONLY_FIELD))


# Oracle: the Fraction elimination as linalg had it before rational rows
# moved to fraction-free integer arithmetic, kept verbatim apart from the
# function names.

def _clean(rows, field):
    out = []
    for r in rows:
        out.append({c: v for c, v in r.items() if not field.is_zero(v)})
    return out


def _pick(active, col_count):
    """Column-order pivot: the least column, ties by (row_fill, row)."""
    best = None
    best_key = None
    for ri, row in active.items():
        rfill = len(row)
        for c in row:
            key = (c, rfill, ri)
            if best_key is None or key < best_key:
                best_key = key
                best = (ri, c)
    return best


def fraction_eliminate(rows, field):
    """Markowitz forward elimination over the field.

    Yields (row_index, pivot_col, pivot_value, pivot_row) for each pivot
    in turn, row_index counting the input rows.  After a pivot is yielded,
    every remaining row r with an entry in pivot_col is updated as
    r -= (r[pivot_col] / pivot_value) * pivot_row; rows that become empty
    drop out.  Pivot rows are never scaled, and yielded rows are not
    touched again.
    """
    active = {i: r for i, r in enumerate(_clean(rows, field)) if r}
    col_count = {}
    for row in active.values():
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
    while active:
        ri, pc = _pick(active, col_count)
        prow = active.pop(ri)
        for c in prow:
            col_count[c] -= 1
        pv = prow[pc]
        yield ri, pc, pv, prow
        for rj in list(active):
            row = active[rj]
            coef = row.get(pc)
            if coef is None:
                continue
            factor = field.div(coef, pv)
            for c, v in prow.items():
                w = field.sub(row.get(c, field.zero), field.mul(factor, v))
                if field.is_zero(w):
                    if c in row:
                        del row[c]
                        col_count[c] -= 1
                else:
                    if c not in row:
                        col_count[c] = col_count.get(c, 0) + 1
                    row[c] = w
            if not row:
                del active[rj]


def fraction_rref(rows, field):
    """Reduced row echelon form of sparse rows over the field.

    Returns a list of (pivot_col, row_dict) sorted by pivot column; each
    row_dict has 1 at its pivot column and support only on non-pivot columns
    elsewhere.  Input rows are not modified.
    """
    done = []
    for _, pc, pv, prow in fraction_eliminate(rows, field):
        inv = field.div(field.one, pv)
        prow = {c: field.mul(v, inv) for c, v in prow.items()}
        for _, qrow in done:
            coef = qrow.get(pc)
            if coef is not None:
                for c, v in prow.items():
                    w = field.sub(qrow.get(c, field.zero), field.mul(coef, v))
                    if field.is_zero(w):
                        qrow.pop(c, None)
                    else:
                        qrow[c] = w
        done.append((pc, prow))
    done.sort(key=lambda t: t[0])
    return done


def fraction_determinant(rows, n, field):
    """Determinant of an n x n sparse matrix: the product of the pivots of
    the Markowitz elimination times the sign of the pivot permutation."""
    if len(rows) != n:
        raise ValueError("matrix is not square")
    det = field.one
    perm = []
    for ri, pc, pv, _ in fraction_eliminate(rows, field):
        det = field.mul(det, pv)
        perm.append((ri, pc))
    if len(perm) != n:
        return field.zero
    # sign of the permutation row index -> pivot column, by inversion count
    rows_order = [pc for _, pc in sorted(perm)]
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if rows_order[i] > rows_order[j]:
                sign = -sign
    if sign < 0:
        det = -det
    return det


def fraction_kernel_basis(pivot_rows, ncols, field):
    # kernel_basis as linalg had it with a field argument, so that the
    # oracle field builds its own unit and signs
    pivot_cols = {pc for pc, _ in pivot_rows}
    vecs = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: field.one}
        for pc, prow in pivot_rows:
            v = prow.get(f)
            if v is not None:
                vec[pc] = -v
        vecs.append(vec)
    return vecs


def fraction_solve(rows, n, rhs, field):
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        if not field.is_zero(rhs[i]):
            row[n] = -rhs[i]
        aug.append(row)
    pr = fraction_rref(aug, field)
    r, kern = len(pr), fraction_kernel_basis(pr, n + 1, field)
    v = kern[0] if r == n else {}
    scale = v.get(n)
    if scale is None:
        raise ValueError("singular matrix in solve()")
    x = [field.zero] * n
    for c, value in v.items():
        if c < n:
            x[c] = value if scale == field.one else field.div(value, scale)
    return x


def _oracle_cases(rng):
    # int and Fraction entries, zero rows, duplicate rows, low rank
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = [{j: rng.choice([rng.randint(-6, 6),
                                Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 12))])
                 for j in range(ncols) if rng.random() < 0.75}
                for _ in range(nrows)]
        if rng.random() < 0.3:
            rows.append({})
        if rng.random() < 0.3:
            rows.append(dict(rng.choice(rows)))
        if rng.random() < 0.3:
            rows.append({c: 3 * v for c, v in rng.choice(rows).items()})
        rng.shuffle(rows)
        yield rows, ncols
    for _ in range(30):
        n = rng.randint(1, 6)
        ncols = rng.randint(n, 8)
        yield _random_rational_rows(rng, n, ncols, rng.randint(1, n)), ncols


def _slice_rows(nvars, degree, extra, k):
    # the ideal rows of one graded slice of a perturbed Fermat form, as
    # the generic Jacobian-ring path builds them
    terms = {tuple(degree if j == i else 0 for j in range(nvars)): 1
             for i in range(nvars)}
    terms.update(extra)
    poly = HomogeneousPolynomial.from_terms(nvars, terms, degree=degree)
    cols = {m: i for i, m in enumerate(monomials_of_degree(nvars, k))}
    rows = []
    for i in range(nvars):
        for m in monomials_of_degree(nvars, k - degree + 1):
            rows.append({cols[tuple(x + y for x, y in zip(e, m))]: c
                         for e, c in poly.partial(i).terms.items()})
    return rows, len(cols)


def _as_fractions(rows):
    return [{c: Fraction(v) for c, v in r.items()} for r in rows]


def _assert_matches_fraction_oracle(rows, ncols):
    # the oracle runs on Fraction entries, the library on the ints and
    # Fractions as given
    snapshot = [dict(r) for r in rows]
    want = fraction_rref(_as_fractions(rows), FRACTION_FIELD)
    got = rref(rows, FRACTION_FIELD)
    assert rows == snapshot
    # pivot columns and rows, each row's entries in increasing column order
    assert [(pc, list(r.items())) for pc, r in got] == \
        [(pc, sorted(r.items())) for pc, r in want]
    assert all(type(v) is Fraction for _, r in got for v in r.values())
    # the same pivots in the same order, each row a rescaled oracle row
    pivots = list(fraction_eliminate(_as_fractions(rows), FRACTION_FIELD))
    mine = list(_eliminate(rows, _domain(rows)))
    assert [(ri, pc) for ri, pc, _, _ in mine] == \
        [(ri, pc) for ri, pc, _, _ in pivots]
    for (_, _, prow, (num, den)), (_, _, _, orow) in zip(mine, pivots):
        assert list(prow) == list(orow)
        assert all(type(v) is int for v in prow.values())
        assert {c: Fraction(v * den, num) for c, v in prow.items()} == orow
    r, kern = rank_and_kernel(rows, ncols)
    assert r == len(want)
    assert kern == kernel_basis(want, ncols)
    assert all(type(v) is Fraction for vec in kern for v in vec.values())
    n = min(len(rows), ncols)
    square = [{c: v for c, v in row.items() if c < n} for row in rows[:n]]
    det = determinant(square, n)
    assert type(det) is Fraction
    fsquare = _as_fractions(square)
    assert det == fraction_determinant(fsquare, n, FRACTION_FIELD)
    rhs = [Fraction(i - 2, 3) for i in range(n)]
    if det:
        x = solve(square, n, rhs)
        assert x == fraction_solve(fsquare, n, rhs, FRACTION_FIELD)
        assert all(type(v) is Fraction for v in x)
    else:
        with pytest.raises(ValueError):
            solve(square, n, rhs)
        with pytest.raises(ValueError):
            fraction_solve(fsquare, n, rhs, FRACTION_FIELD)


def test_integer_rows_match_the_fraction_oracle_randomized():
    rng = random.Random(1968)
    singular = 0
    for rows, ncols in _oracle_cases(rng):
        _assert_matches_fraction_oracle(rows, ncols)
        n = min(len(rows), ncols)
        square = [{c: v for c, v in row.items() if c < n} for row in rows[:n]]
        singular += not determinant(square, n)
    # singular and nonsingular squares are both exercised in bulk
    assert 40 < singular < 140


def test_integer_rows_match_the_fraction_oracle_on_slices():
    forms = [(4, 3, {(1, 1, 1, 0): Fraction(3, 2),
                     (0, 2, 0, 1): Fraction(-2, 5)}),
             (3, 4, {(2, 1, 1): Fraction(-7, 3), (0, 2, 2): 4})]
    for nvars, degree, extra in forms:
        for k in range(degree - 1, nvars * (degree - 2) + 2):
            _assert_matches_fraction_oracle(
                *_slice_rows(nvars, degree, extra, k))
    # the three form shapes of the jring-generic benchmark, up to each
    # socle slice
    rng = random.Random(1957)
    for nvars, degree, count in ((5, 3, 12), (6, 3, 4), (4, 4, 4)):
        extra = _seeded_perturbation(rng, nvars, degree, count)
        for k in range(degree - 1, nvars * (degree - 2) + 1):
            _assert_matches_fraction_oracle(
                *_slice_rows(nvars, degree, extra, k))


def _pivot_sequence(pivots):
    return [(ri, pc) for ri, pc, _, _ in pivots]


def _assert_matches_oracle_pivots(rows):
    # the same pivots in the same order, each pivot row over D num/den
    # times the oracle's pivot row
    want = list(fraction_eliminate(rows, FRACTION_FIELD))
    got = list(_eliminate(rows, _domain(rows)))
    assert _pivot_sequence(got) == _pivot_sequence(want)
    for (_, _, prow, (num, den)), (_, _, _, orow) in zip(got, want):
        assert list(prow) == list(orow)
        assert {c: Scalar(v * den, num) for c, v in prow.items()} == orow


def _seeded_perturbation(rng, nvars, degree, count):
    # count rational terms on monomials off the Fermat support
    monos = [m for m in monomials_of_degree(nvars, degree) if max(m) < degree]
    return {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 9))
            for m in rng.sample(monos, count)}


def test_pivot_sequence_matches_the_full_rescan_on_integer_slices():
    # the three form shapes of the jring-generic benchmark, every slice
    # whose ideal part is nonempty
    rng = random.Random(1957)
    for nvars, degree, count in ((5, 3, 12), (6, 3, 4), (4, 4, 4)):
        extra = _seeded_perturbation(rng, nvars, degree, count)
        for k in range(degree - 1, nvars * (degree - 2) + 1):
            rows, _ = _slice_rows(nvars, degree, extra, k)
            want = fraction_eliminate(_as_fractions(rows), FRACTION_FIELD)
            got = list(_eliminate(rows, _domain(rows)))
            assert all(type(v) is int
                       for _, _, prow, _ in got for v in prow.values())
            assert _pivot_sequence(got) == _pivot_sequence(want), \
                (nvars, degree, k)


def test_pivot_sequence_matches_the_full_rescan_on_scalar_rows():
    a = Scalar.param("a")
    cases = [iso_matrix(distinguished_triple()).rows_as_dicts()]
    extra = {(1, 1, 1, 0): a, (0, 2, 0, 1): Fraction(-2, 5)}
    for k in range(2, 5):
        cases.append(_slice_rows(4, 3, extra, k)[0])
    for rows in cases:
        assert any(isinstance(v, Scalar) for r in rows for v in r.values())
        _assert_matches_oracle_pivots(rows)


def _shuffled_with_combinations(rng, rows):
    # the rows in another order, with random combinations of them added:
    # the same row space
    out = [dict(r) for r in rows]
    for _ in range(rng.randint(1, 3)):
        combo = {}
        for r in rng.sample(rows, rng.randint(1, len(rows))):
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + k * v
        out.append({c: v for c, v in combo.items() if v})
    rng.shuffle(out)
    return out


def test_rref_depends_only_on_the_row_space():
    # a canonical pivot rule: any rows spanning the same space give the
    # same rref, as a Markowitz rule would not
    rng = random.Random(1983)
    cases = [rows for rows, _ in _oracle_cases(rng) if rows]
    for nvars, degree, count in ((5, 3, 12), (4, 4, 4)):
        extra = _seeded_perturbation(rng, nvars, degree, count)
        for k in range(degree - 1, nvars * (degree - 2) + 1):
            cases.append(_slice_rows(nvars, degree, extra, k)[0])
    a = Scalar.param("a")
    cases.append(_slice_rows(4, 3, {(1, 1, 1, 0): a}, 3)[0])
    for rows in cases:
        want = rref(rows, FRACTION_FIELD)
        assert rref(_shuffled_with_combinations(rng, rows),
                    FRACTION_FIELD) == want


def test_int_entries_divide_exactly_beside_a_scalar():
    # int / int is a float in Python; the field of fractions keeps it a
    # Fraction, so a mixed matrix neither loses exactness nor fails
    assert type(FRACTION_FIELD.div(3, 2)) is Fraction
    a = Scalar.param("a")
    rows = [{0: 2, 1: a}, {0: 3, 1: 1}]
    srows = [{c: v if isinstance(v, Scalar) else Scalar.from_fraction(v)
              for c, v in r.items()} for r in rows]
    assert (rref(rows, FRACTION_FIELD)
            == fraction_rref(srows, SCALAR_ONLY_FIELD))
    assert (determinant(rows, 2)
            == fraction_determinant(srows, 2, SCALAR_ONLY_FIELD))
    x = solve([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, [1, 0])
    assert all(type(v) is Fraction for v in x)


def _random_parametric_rows(rng, syms, nrows, ncols):
    # sparse rows of Fractions, small polynomials and quotients in the
    # parameters, with explicit zeros and rows that depend on others
    def entry():
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            v = v + rng.choice(syms) * rng.randint(-2, 2)
        if rng.random() < 0.2:
            v = v / (rng.choice(syms) + rng.randint(1, 3))
        return v

    rows = [{j: entry() for j in range(ncols) if rng.random() < 0.5}
            for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        r, q = rng.sample(rows, 2)
        k = rng.choice(syms) + rng.randint(-1, 1)
        rows[rng.randrange(nrows)] = {c: r.get(c, 0) * k + q.get(c, 0)
                                      for c in set(r) | set(q)}
    return rows


def test_parametric_rows_match_the_field_oracle_randomized():
    rng = random.Random(1992)
    a, b = Scalar.param("a"), Scalar.param("b")
    singular = 0
    for syms in ((a,), (a, b)):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            rows = _random_parametric_rows(rng, syms, nrows, ncols)
            if not any(isinstance(v, Scalar)
                       for r in rows for v in r.values()):
                rows.append({0: syms[-1]})
            snapshot = [dict(r) for r in rows]
            want = fraction_rref(rows, FRACTION_FIELD)
            got = rref(rows, FRACTION_FIELD)
            assert rows == snapshot
            assert got == want
            assert all(type(v) is Scalar for _, r in got for v in r.values())
            _assert_matches_oracle_pivots(rows)
            assert all(type(v) is ParamPolynomial
                       for _, _, prow, _ in _eliminate(rows, _domain(rows))
                       for v in prow.values())
            r, kern = rank_and_kernel(rows, ncols)
            assert r == len(want)
            assert kern == kernel_basis(want, ncols)
            n = min(len(rows), ncols)
            square = [{c: v for c, v in row.items() if c < n}
                      for row in rows[:n]]
            det = determinant(square, n)
            assert det == fraction_determinant(square, n, FRACTION_FIELD)
            rhs = [Fraction(i - 2, 3) + syms[i % len(syms)] * (i % 2)
                   for i in range(n)]
            if det:
                x = solve(square, n, rhs)
                assert x == fraction_solve(square, n, rhs, FRACTION_FIELD)
            else:
                singular += 1
                with pytest.raises(ValueError):
                    solve(square, n, rhs)
                with pytest.raises(ValueError):
                    fraction_solve(square, n, rhs, FRACTION_FIELD)
    # singular and nonsingular squares are both exercised
    assert 5 < singular < 75
