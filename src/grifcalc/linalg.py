"""Sparse exact linear algebra over the field of fractions.

Matrices are lists of sparse rows (dict column -> coefficient) of ints,
Fractions, Scalars (rational functions in parameters) or a mix of them,
over the one field Q(params).  Only rref(rows, field) and
RowReducer(field) take a field, and FRACTION_FIELD exists for them alone,
because the benchmark tracer calls rref(rows, field) and wraps RowReducer.

There is one elimination kernel with one pivot rule and one row update.
The pivot is taken in column order: a row with the least leading column,
the shorter row first, then the lower row index.  So the pivot columns are
the first columns, left to right, that are independent of those before
them, and the reduced rows are the unique RREF of the row space, whatever
rows span it: the Macaulay-matrix view of a Groebner staircase (Lazard
1983; Faugere 1999).  Rows are eliminated fraction-free over an integral
domain D (Bareiss 1968; Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, ch. 9): Z when every entry is an int or a Fraction, and
Z[params], the int-coefficient ParamPolynomials, once a Scalar occurs.
Each row is cleared of its denominators and divided by its content; with
g = gcd(pv, coef) in D the update is r <- (pv/g) r - (coef/g) prow, then
r is divided by its content (Knuth, TAOCP vol. 2, 4.5.1).  Every row
stays a nonzero multiple of the field update's row r - (coef/pv) prow, so
the zero patterns, the pivots and the reduced rows are the field
update's.  rref then back-substitutes in reverse: from the last pivot row
to the first, it clears each row's later pivot columns with their
already-reduced rows, one row update per such column.  A pivot row holds
no column before its pivot and a reduced row no pivot column but its
own, so no pivot column comes back, and the entries come out in
increasing column order.  rref builds its Fractions or Scalars once, at
the end, and determinant one per pivot, from the row scales that the
pass tracks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .scalar import ParamPolynomial, Scalar, exact, poly_gcd_z


class FractionField:
    """The field of fractions: exact arithmetic on int, Fraction, Scalar
    and mixes of them, with Fraction zero and one."""

    zero = Fraction(0)
    one = Fraction(1)

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
    def is_zero(a):
        return not a


FRACTION_FIELD = FractionField()


# An integral domain D: its zero, its one, its gcd of any number of
# elements, an entry's (num, den) over D, and the field element num/den.
_Domain = namedtuple("_Domain", "zero one gcd parts quotient")


def _scalar_parts(v):
    v = Scalar.from_fraction(v)
    return v.num, v.den


_INTEGERS = _Domain(0, 1, gcd, lambda v: (v.numerator, v.denominator),
                    Fraction)
_PARAM_POLYNOMIALS = _Domain(ParamPolynomial.constant(0),
                             ParamPolynomial.constant(1), poly_gcd_z,
                             _scalar_parts, Scalar)


def _domain(rows):
    """Z when every entry's type is int or Fraction, else Z[params]; there
    each entry goes through Scalar.from_fraction, which refuses a bool."""
    if all(type(v) in (int, Fraction) for r in rows for v in r.values()):
        return _INTEGERS
    return _PARAM_POLYNOMIALS


def _divide_content(row, domain):
    """Divide row by the gcd of its entries in place; return that gcd."""
    content = domain.gcd(*row.values())
    if content != domain.one:
        for c in row:
            row[c] //= content
    return content


def _cleared_rows(rows, domain):
    """Each row cleared of zeros, multiplied by the lcm of its
    denominators in D and divided by its content, as (row over D, [num,
    den]) with the row over D num/den times the input row."""
    out = []
    for r in rows:
        # every entry goes through parts, which refuses an inexact one,
        # before the zeros are dropped
        r = {c: domain.parts(v) for c, v in r.items()}
        r = {c: nd for c, nd in r.items() if nd[0]}
        mult = domain.one
        for _, d in r.values():
            mult *= d // domain.gcd(mult, d)
        r = {c: n * (mult // d) for c, (n, d) in r.items()}
        out.append((r, [mult, _divide_content(r, domain)]))
    return out


def _update(row, coef, pv, prow, domain):
    """row <- (pv/g) row - (coef/g) prow over D, g = gcd(pv, coef), then
    row divided by its content, in place.  Returns the factor pv/g and the
    content, whose quotient scales the row."""
    g = domain.gcd(pv, coef)
    a = pv // g
    if a != domain.one:
        for c in row:
            row[c] *= a
    b = coef // g
    zero = domain.zero
    for c, v in prow.items():
        w = row.get(c, zero) - b * v
        if w:
            row[c] = w
        elif c in row:
            del row[c]
    return a, _divide_content(row, domain)


def _eliminate(rows, domain):
    """Column-order forward elimination over the domain D.

    Yields (row_index, pivot_col, pivot_row, scale) for each pivot in
    turn, row_index counting the input rows.  pivot_row is a row over D,
    and scale = [num, den] over D means that pivot_row is num/den times
    the pivot row of the elimination that updates every remaining row r
    with an entry in pivot_col as r -= (r[pivot_col] / pivot_value) *
    pivot_row.  Rows that become empty drop out, and yielded rows are not
    touched again.

    The pivot is a row with the least leading column, ties broken by the
    shorter row, then the lower row index.  No remaining row holds an
    earlier pivot column, so every row holding the pivot column leads at
    it, and a row's key changes only when the row is updated.  A heap of
    (leading col, length, row index, row) thus holds one live entry per
    remaining row, and the rows to update are the entries at its top.
    """
    prepared = _cleared_rows(rows, domain)
    heap = [(min(r), len(r), ri, r) for ri, (r, _) in enumerate(prepared)
            if r]
    heapify(heap)
    while heap:
        pc, _, ri, prow = heappop(heap)
        pv = prow[pc]
        yield ri, pc, prow, prepared[ri][1]
        while heap and heap[0][0] == pc:
            _, _, rj, row = heappop(heap)
            a, content = _update(row, row[pc], pv, prow, domain)
            scale = prepared[rj][1]
            scale[0] *= a
            scale[1] *= content
            if row:
                heappush(heap, (min(row), len(row), rj, row))


def rref(rows, field):
    """Reduced row echelon form of sparse rows over the field of fractions.

    Returns a list of (pivot_col, row_dict) sorted by pivot column; each
    row_dict has 1 at its pivot column and support only on non-pivot columns
    elsewhere, its entries in increasing column order.  Input rows are not
    modified.  The pivot rows are back-substituted fraction-free over D,
    last pivot first, and turned into Fraction or Scalar rows last.
    """
    domain = _domain(rows)
    done = [(pc, prow) for _, pc, prow, _ in _eliminate(rows, domain)]
    # a pivot row holds no earlier pivot column, and a reduced row no pivot
    # column but its own, so clearing a row's later pivot columns with
    # their reduced rows brings none of them back
    reduced = {}
    for pc, row in reversed(done):
        for c in [c for c in row if c in reduced]:
            _update(row, row[c], reduced[c][c], reduced[c], domain)
        reduced[pc] = row
    return [(pc, {c: domain.quotient(row[c], row[pc]) for c in sorted(row)})
            for pc, row in sorted(reduced.items())]


def rank(rows):
    return len(rref(rows, FRACTION_FIELD))


def kernel_basis(pivot_rows, ncols):
    """Kernel basis vectors (one per free column) from an rref.

    Vectors come out as sparse dicts, ordered by their free column index.
    Each vector has 1 at its free column.
    """
    pivot_cols = {pc for pc, _ in pivot_rows}
    vecs = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: Fraction(1)}
        for pc, prow in pivot_rows:
            v = prow.get(f)
            if v is not None:
                vec[pc] = -v
        vecs.append(vec)
    return vecs


def rank_and_kernel(rows, ncols):
    pr = rref(rows, FRACTION_FIELD)
    return len(pr), kernel_basis(pr, ncols)


def _check_square(rows, n):
    """Raise ValueError unless rows are n rows with columns in range(n)."""
    if len(rows) != n:
        raise ValueError("matrix is not square")
    if any(not 0 <= c < n for r in rows for c in r):
        raise ValueError("column outside range(%d)" % n)


def determinant(rows, n):
    """Determinant of an n x n sparse matrix: the product of the pivots of
    the column-order elimination times the sign of the pivot permutation.
    Each pivot row's pivot is divided by the row's scale."""
    _check_square(rows, n)
    domain = _domain(rows)
    det = Fraction(1)
    perm = []
    for ri, pc, prow, scale in _eliminate(rows, domain):
        det *= domain.quotient(prow[pc] * scale[1], scale[0])
        perm.append((ri, pc))
    if len(perm) != n:
        return Fraction(0)
    # sign of the permutation row index -> pivot column, by inversion count
    order = [pc for _, pc in sorted(perm)]
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    return -det if odd else det


def solve(rows, n, rhs):
    """Solve A x = rhs for square nonsingular A given as sparse rows.

    rhs is a dense list of length n.  Returns a dense list.  Raises
    ValueError if A is singular, is not n x n or rhs is not of length n.

    In column order the rref of [A | rhs] has the pivots 0..n-1 exactly
    when A is nonsingular, and then it is [I | x].
    """
    _check_square(rows, n)
    if len(rhs) != n:
        raise ValueError("right-hand side is not of length %d" % n)
    aug = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        b = exact(b)  # a float or a bool is refused, a string parsed
        if b:
            row[n] = b
        aug.append(row)
    pr = rref(aug, FRACTION_FIELD)
    if [pc for pc, _ in pr] != list(range(n)):
        raise ValueError("singular matrix in solve()")
    return [prow.get(n, Fraction(0)) for _, prow in pr]


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
        # exact refuses a float or a bool entry before the zeros are dropped
        vec = {c: exact(v) for c, v in vec.items()}
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
