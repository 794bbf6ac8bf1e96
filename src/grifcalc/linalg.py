"""Sparse exact linear algebra over the field of fractions.

Matrices are lists of sparse rows (dict column -> coefficient) of ints,
Fractions, Scalars (rational functions in parameters) or a mix of them,
over the one field Q(params).  Only rref(rows, field) and
RowReducer(field) take a field, and FRACTION_FIELD exists for them alone,
because the benchmark tracer calls rref(rows, field) and wraps RowReducer.

There is one elimination kernel with one pivot rule and one row update.
The pivot is a Markowitz fill-in estimate with deterministic tie-breaking
(Markowitz 1957); a column -> rows index and a heap of row keys let a
pivot step visit only the rows holding its column and recompute only the
keys it can change.  Rows are eliminated fraction-free over an integral
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
already-reduced rows, one row update per such column.  Forward
elimination leaves a pivot row no column of an earlier pivot and a
reduced row holds no pivot column but its own, so no pivot column comes
back; the reduced rows are the unique RREF for those pivots, and their
entries come out in increasing column order.  rref builds its Fractions
or Scalars once, at the end, and determinant one per pivot, from the row
scales that the pass tracks.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
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
    def neg(a):
        return -a

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
        r = {c: domain.parts(v) for c, v in r.items() if v}
        mult = domain.one
        for _, d in r.values():
            mult *= d // domain.gcd(mult, d)
        r = {c: n * (mult // d) for c, (n, d) in r.items()}
        out.append((r, [mult, _divide_content(r, domain)]))
    return out


def _update(row, coef, pv, prow, domain, col_rows=None, ri=None):
    """row <- (pv/g) row - (coef/g) prow over D, g = gcd(pv, coef), then
    row divided by its content, in place; given col_rows, it keeps listing
    ri under exactly the columns of row.  Returns the factor pv/g and the
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
            if c not in row and col_rows is not None:
                col_rows[c].add(ri)
            row[c] = w
        elif c in row:
            del row[c]
            if col_rows is not None:
                col_rows[c].remove(ri)
    return a, _divide_content(row, domain)


def _eliminate(rows, domain):
    """Markowitz forward elimination over the domain D.

    Yields (row_index, pivot_col, pivot_row, scale) for each pivot in
    turn, row_index counting the input rows.  pivot_row is a row over D,
    and scale = [num, den] over D means that pivot_row is num/den times
    the pivot row of the elimination that updates every remaining row r
    with an entry in pivot_col as r -= (r[pivot_col] / pivot_value) *
    pivot_row.  Rows that become empty drop out, and yielded rows are not
    touched again.

    The pivot is the entry that minimizes (row_fill-1)*(col_fill-1), ties
    broken by (col, row).  Each active row's best (cost, col, row) sits in
    a heap; an entry is live while it is still its row's key.  A pivot
    changes the fill of its own columns only, so only the rows it updates
    and the rows holding one of its columns get new keys.
    """
    prepared = _cleared_rows(rows, domain)
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
            a, content = _update(row, row[pc], pv, prow, domain, col_rows,
                                 rj)
            scale = scales[rj]
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
    the Markowitz elimination times the sign of the pivot permutation.
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

    A is nonsingular exactly when [A | -rhs] has rank n and its one kernel
    vector v has v[n] != 0; then x = v[:n] / v[n].  This holds whichever
    columns the elimination picks as pivots, the rhs column included.
    """
    _check_square(rows, n)
    if len(rhs) != n:
        raise ValueError("right-hand side is not of length %d" % n)
    aug = []
    for r, b in zip(rows, rhs):
        row = dict(r)
        b = exact(b)  # before negating: -True is the int -1
        if b:
            row[n] = -b
        aug.append(row)
    r, kern = rank_and_kernel(aug, n + 1)
    v = kern[0] if r == n else {}
    scale = v.get(n)
    if scale is None:
        raise ValueError("singular matrix in solve()")
    x = [Fraction(0)] * n
    for c, value in v.items():
        if c < n:
            x[c] = value if scale == 1 else value / scale
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
