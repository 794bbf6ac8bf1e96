"""Sparse exact linear algebra over the field of fractions.

Matrices are lists of sparse rows (dict column -> coefficient).  Each
routine takes its field as a parameter, and the one field is
FRACTION_FIELD: exact over Fraction entries, Scalar entries (rational
functions in parameters) or a mix of both.  Pivot selection uses a
Markowitz fill-in estimate with deterministic tie-breaking, so every
result is reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction


class FractionField:
    """The field of fractions: exact arithmetic on Fraction, Scalar and
    mixes of the two, with Fraction zero and one."""

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
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return not a


FRACTION_FIELD = FractionField()


def _clean_rows(rows, field):
    out = []
    for r in rows:
        out.append({c: v for c, v in r.items() if not field.is_zero(v)})
    return out


def _pick_pivot(active, col_count):
    """Markowitz pivot: minimize (row_fill-1)*(col_fill-1), ties by (col, row)."""
    best = None
    best_key = None
    for ri, row in active.items():
        rfill = len(row)
        for c in row:
            key = ((rfill - 1) * (col_count[c] - 1), c, ri)
            if best_key is None or key < best_key:
                best_key = key
                best = (ri, c)
    return best


def _eliminate(rows, field):
    """Markowitz forward elimination over the field.

    Yields (row_index, pivot_col, pivot_value, pivot_row) for each pivot
    in turn, row_index counting the input rows.  After a pivot is yielded,
    every remaining row r with an entry in pivot_col is updated as
    r -= (r[pivot_col] / pivot_value) * pivot_row; rows that become empty
    drop out.  Pivot rows are never scaled, and yielded rows are not
    touched again.
    """
    active = {i: r for i, r in enumerate(_clean_rows(rows, field)) if r}
    col_count = {}
    for row in active.values():
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
    while active:
        ri, pc = _pick_pivot(active, col_count)
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


def rref(rows, field):
    """Reduced row echelon form of sparse rows over the field.

    Returns a list of (pivot_col, row_dict) sorted by pivot column; each
    row_dict has 1 at its pivot column and support only on non-pivot columns
    elsewhere.  Input rows are not modified.
    """
    done = []
    for _, pc, pv, prow in _eliminate(rows, field):
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
    the Markowitz elimination times the sign of the pivot permutation."""
    if len(rows) != n:
        raise ValueError("matrix is not square")
    det = field.one
    perm = []
    for ri, pc, pv, _ in _eliminate(rows, field):
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
