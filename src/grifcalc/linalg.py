"""Sparse exact linear algebra over the field of fractions.

Matrices are lists of sparse rows (dict column -> coefficient).  Each
routine takes its field as a parameter, and the one field is
FRACTION_FIELD: exact over int and Fraction entries, Scalar entries
(rational functions in parameters) or a mix of them.

There is one elimination kernel with one pivot rule: a Markowitz fill-in
estimate with deterministic tie-breaking, so every result is reproducible
run to run.  The kernel keeps a column -> rows index, so a pivot step
visits only the rows that hold the pivot column, and it keeps each row's
best pivot key in a heap, recomputing only the keys that the step can
change (Markowitz 1957).  How the kernel updates a row depends only on
the entry types:

- When every entry is an int or a Fraction (over FRACTION_FIELD), each
  row is cleared to a primitive integer row and eliminated fraction-free
  in the style of Bareiss (1968), with the multipliers cross-cancelled
  (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(pv, coef),
  r <- (pv/g) r - (coef/g) prow, then r is divided by its content.  rref
  builds its Fraction entries once, at the end, and determinant divides
  out the row scales that the pass tracks.
- When any entry is a Scalar, the field update r <- r - (coef/pv) prow
  runs in the field's own arithmetic.

Scaling a row by a nonzero factor never changes its zero pattern, so both
updates choose the same pivots, and the reduced rows, which the pivot
columns determine, are the same.  rref's back-substitution uses the same
kind of index over the rows already reduced.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class FractionField:
    """The field of fractions: exact arithmetic on int, Fraction, Scalar
    and mixes of them, with Fraction zero and one."""

    zero = Fraction(0)
    one = Fraction(1)

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
        if isinstance(a, int) and isinstance(b, int):
            return Fraction(a, b)  # a / b would be a float
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return not a


FRACTION_FIELD = FractionField()


def _integer_rows(rows):
    """Each row cleared of zeros and denominators and divided by its
    content, as (integer row, [num, den]) with the integer row num/den
    times the input row; None when an entry is neither an int nor a
    Fraction."""
    if not all(isinstance(v, (int, Fraction))
               for r in rows for v in r.values()):
        return None
    out = []
    for r in rows:
        r = {c: v for c, v in r.items() if v}
        mult = lcm(*(v.denominator for v in r.values()))
        r = {c: v.numerator * (mult // v.denominator) for c, v in r.items()}
        content = gcd(*r.values())
        if content > 1:
            r = {c: v // content for c, v in r.items()}
        out.append((r, [mult, content]))
    return out


def _field_update(row, ri, factor, prow, field, col_rows):
    """row -= factor * prow in the field's arithmetic, in place; col_rows
    keeps listing ri under exactly the columns of row."""
    for c, v in prow.items():
        w = field.sub(row.get(c, field.zero), field.mul(factor, v))
        if field.is_zero(w):
            if c in row:
                del row[c]
                col_rows[c].remove(ri)
        else:
            if c not in row:
                col_rows[c].add(ri)
            row[c] = w


def _integer_update(row, ri, coef, pv, prow, col_rows):
    """row <- (pv/g) row - (coef/g) prow over the integers, g = gcd(pv,
    coef), then row divided by its content, in place; col_rows keeps
    listing ri under exactly the columns of row.  Returns the factor pv/g
    and the content, whose quotient scales the row."""
    g = gcd(pv, coef)
    a = pv // g
    if a != 1:
        for c in row:
            row[c] *= a
    b = coef // g
    for c, v in prow.items():
        w = row.get(c, 0) - b * v
        if w:
            if c not in row:
                col_rows[c].add(ri)
            row[c] = w
        elif c in row:
            del row[c]
            col_rows[c].remove(ri)
    content = gcd(*row.values())
    if content > 1:
        for c in row:
            row[c] //= content
    return a, content


def _eliminate(rows, field):
    """Markowitz forward elimination over the field.

    Yields (row_index, pivot_col, pivot_row, scale) for each pivot in
    turn, row_index counting the input rows.  pivot_row is scale times the
    pivot row of the elimination that updates every remaining row r with
    an entry in pivot_col as r -= (r[pivot_col] / pivot_value) * pivot_row.
    scale is None when the kernel runs that field update itself (some
    entry is a Scalar, or the field is not FRACTION_FIELD), and a pair
    (num, den) of ints meaning num/den when it runs on primitive integer
    rows.  Rows that become empty drop out,
    and yielded rows are not touched again.

    The pivot is the entry that minimizes (row_fill-1)*(col_fill-1), ties
    broken by (col, row).  Each active row's best (cost, col, row) sits in
    a heap; an entry is live while it is still its row's key.  A pivot
    changes the fill of its own columns only, so only the rows it updates
    and the rows holding one of its columns get new keys.
    """
    prepared = _integer_rows(rows) if field is FRACTION_FIELD else None
    if prepared is None:
        prepared = [({c: v for c, v in r.items() if not field.is_zero(v)},
                     None) for r in rows]
    active = {i: r for i, (r, _) in enumerate(prepared) if r}
    scales = [s for _, s in prepared]
    col_rows = defaultdict(set)  # column -> ids of the active rows in it
    for ri, row in active.items():
        for c in row:
            col_rows[c].add(ri)
    keys = {}

    def key_of(ri):
        # in a row of two or more entries the cost grows with the column
        # fill, so the least (fill, col) is the least (cost, col)
        row = active[ri]
        fill, c = min((len(col_rows[c]), c) for c in row)
        key = ((len(row) - 1) * (fill - 1), c, ri)
        keys[ri] = key
        return key

    heap = [key_of(ri) for ri in active]
    heapify(heap)
    while active:
        key = heappop(heap)
        _, pc, ri = key
        if keys.get(ri) is not key:
            continue
        del keys[ri]
        prow = active.pop(ri)
        for c in prow:
            col_rows[c].remove(ri)
        pv = prow[pc]
        yield ri, pc, prow, scales[ri]
        stale = set()
        for rj in sorted(col_rows[pc]):
            row = active[rj]
            coef = row[pc]
            scale = scales[rj]
            if scale is None:
                _field_update(row, rj, field.div(coef, pv), prow, field,
                              col_rows)
            else:
                a, content = _integer_update(row, rj, coef, pv, prow,
                                             col_rows)
                scale[0] *= a
                scale[1] *= content
            if row:
                stale.add(rj)
            else:
                del active[rj]
                del keys[rj]
        for c in prow:
            stale.update(col_rows[c])
        for rj in stale:
            heappush(heap, key_of(rj))


def rref(rows, field):
    """Reduced row echelon form of sparse rows over the field.

    Returns a list of (pivot_col, row_dict) sorted by pivot column; each
    row_dict has 1 at its pivot column and support only on non-pivot columns
    elsewhere.  Input rows are not modified.  Integer rows are
    back-substituted fraction-free and turned into Fraction rows last.
    """
    done = []
    integral = False
    col_rows = defaultdict(set)  # column -> positions in done of its rows
    for _, pc, prow, scale in _eliminate(rows, field):
        holders = sorted(col_rows[pc])
        if scale is None:
            inv = field.div(field.one, prow[pc])
            prow = {c: field.mul(v, inv) for c, v in prow.items()}
            for qi in holders:
                qrow = done[qi][1]
                _field_update(qrow, qi, qrow[pc], prow, field, col_rows)
        else:
            integral = True
            pv = prow[pc]
            for qi in holders:
                qrow = done[qi][1]
                _integer_update(qrow, qi, qrow[pc], pv, prow, col_rows)
        for c in prow:
            col_rows[c].add(len(done))
        done.append((pc, prow))
    done.sort(key=lambda t: t[0])
    if integral:
        done = [(pc, {c: Fraction(v, row[pc]) for c, v in row.items()})
                for pc, row in done]
    return done


def rank(rows, field):
    return len(rref(rows, field))


def kernel_basis(pivot_rows, ncols, field):
    """Kernel basis vectors (one per free column) from an rref.

    Vectors come out as sparse dicts, ordered by their free column index.
    Each vector has 1 at its free column.
    """
    pivot_cols = {pc for pc, _ in pivot_rows}
    vecs = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: field.one}
        for pc, prow in pivot_rows:
            v = prow.get(f)
            if v is not None:
                vec[pc] = field.neg(v)
        vecs.append(vec)
    return vecs


def rank_and_kernel(rows, ncols, field):
    pr = rref(rows, field)
    return len(pr), kernel_basis(pr, ncols, field)


def determinant(rows, n, field):
    """Determinant of an n x n sparse matrix: the product of the pivots of
    the Markowitz elimination times the sign of the pivot permutation.
    An integer pivot row's pivot is divided by the row's scale."""
    if len(rows) != n:
        raise ValueError("matrix is not square")
    det = field.one
    perm = []
    for ri, pc, prow, scale in _eliminate(rows, field):
        pv = prow[pc]
        if scale is not None:
            pv = Fraction(pv * scale[1], scale[0])
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
        det = field.neg(det)
    return det


def solve(rows, n, rhs, field):
    """Solve A x = rhs for square nonsingular A given as sparse rows.

    rhs is a dense list of length n.  Returns a dense list.  Raises
    ValueError if A is singular.

    A is nonsingular exactly when [A | -rhs] has rank n and its one kernel
    vector v has v[n] != 0; then x = v[:n] / v[n].  This holds whichever
    columns the elimination picks as pivots, the rhs column included.
    """
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        if not field.is_zero(rhs[i]):
            row[n] = field.neg(rhs[i])
        aug.append(row)
    r, kern = rank_and_kernel(aug, n + 1, field)
    v = kern[0] if r == n else {}
    scale = v.get(n)
    if scale is None:
        raise ValueError("singular matrix in solve()")
    x = [field.zero] * n
    for c, value in v.items():
        if c < n:
            x[c] = value if scale == field.one else field.div(value, scale)
    return x


class RowReducer:
    """Incremental echelon accumulator: feed vectors, track the rank.

    Rows are reduced against stored pivots by smallest column index.  The
    stored pivot rows are normalized to 1 at their leading column.  Feeding
    order determines the basis but not the final rank.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Return vec reduced against the stored pivots (a new dict)."""
        field = self.field
        vec = {c: v for c, v in vec.items() if not field.is_zero(v)}
        while vec:
            c = min(vec)
            prow = self.pivots.get(c)
            if prow is None:
                return vec
            coef = vec[c]
            for pc, pv in prow.items():
                w = field.sub(vec.get(pc, field.zero), field.mul(coef, pv))
                if field.is_zero(w):
                    vec.pop(pc, None)
                else:
                    vec[pc] = w
        return vec

    def add(self, vec):
        """Reduce and install vec; True if it increased the rank."""
        vec = self.reduce(vec)
        if not vec:
            return False
        c = min(vec)
        field = self.field
        inv = field.div(field.one, vec[c])
        row = {k: field.mul(v, inv) for k, v in vec.items()}
        if row[c] != field.one:
            # a ring that is not a field; reduce would never clear column c
            raise ArithmeticError("pivot normalized to %r, not 1" % (row[c],))
        self.pivots[c] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)
