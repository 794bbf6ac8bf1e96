"""Graded Jacobian rings of smooth hypersurfaces, with exact arithmetic.

For a degree-d form F in nvars variables, the Jacobian ring is
R = k[x_0..x_{nvars-1}] / (dF/dx_0, ..., dF/dx_{nvars-1}).  R is graded
Artinian Gorenstein with socle in degree nvars*(d-2); multiplication into
the socle gives a perfect pairing between complementary degrees.

Monomials are exponent tuples.  Graded slices carry bases in descending
graded-lex order (x_0 largest).  When F is the Fermat form sum x_i^d the
Jacobian ideal is generated by the pure powers x_i^{d-1}, so the slice
basis is just the monomials with all exponents <= d-2 and reduction is a
term filter; any other F goes through sparse row reduction of the
degree-k slice of the ideal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, index, le

from .errors import DegreeMismatch, OutOfRange
from .hodge import bounded_slice_dimension
from .linalg import (
    FRACTION_FIELD,
    determinant as _det_rows,
    rank_and_kernel,
    rref,
)
from .scalar import Scalar, exact, power_product, scalar_to_string, signed_sum

# The most monomials a slice may list, and the most products u*v a pairing
# may take normal forms of: 20,000 of either cost well under a second, and
# a census (characters.enumerate_type) lists one character per monomial.
MAX_SLICE_MONOMIALS = 20_000
# The most nonzero entries in the rows x^m * dF/dx_i of a generic slice,
# counted before the Koszul rows are left out, as columns alone do not
# measure the elimination.  The worst accepted slice, in process time on
# one core of an Intel Xeon under CPython 3.11, with seeded rational
# coefficients: 1.5 s for a dense form in 3-7 variables of degree 3-10 (a
# quintic in 4 variables, 4,900 entries), and 11.7 s for a Fermat form
# with six more terms (a septic in 4 variables, 4,840 entries).
MAX_SLICE_ENTRIES = 5_000


def reduced_monomials(nvars, k, cap):
    """Degree-k exponent tuples with every entry <= cap, descending grlex.
    A loop, not a recursion, so that no variable count reaches Python's
    recursion limit."""
    if k < 0 or k > nvars * cap:
        return ()
    if k == 0:
        return ((0,) * nvars,)
    last = nvars - 1
    exps, out = [0] * nvars, []
    i, tail = -1, k - 1  # the first tuple: all entries refilled with k
    while True:
        # take one unit off entry i and refill the entries after it with
        # tail + 1, largest first: cap while it lasts, the rest, then zeros
        if i >= 0:
            exps[i] -= 1
        if i == last - 1:
            exps[last] = tail + 1
        else:
            room = last - i
            full, rest = divmod(tail + 1, cap)
            exps[i + 1:] = ([cap] * full + [rest] * (full < room)
                            + [0] * (room - full - 1))
        out.append(tuple(exps))
        # the next i is the rightmost nonzero entry whose successors,
        # holding tail, can take one unit more
        tail, i = exps[last], last - 1
        while i >= 0 and (not exps[i] or tail == (last - i) * cap):
            tail += exps[i]
            i -= 1
        if i < 0:
            return tuple(out)


def monomials_of_degree(nvars, k):
    """All exponent tuples of total degree k, descending graded-lex."""
    return reduced_monomials(nvars, k, k)


def ambient_dimension(nvars, k):
    if k < 0:
        return 0
    return math.comb(nvars - 1 + k, k)


@lru_cache(maxsize=None)
def _variable_names(nvars):
    # one tuple per variable count, so a slice's monomials share the names
    return tuple("x%d" % i for i in range(nvars))


def monomial_string(exps):
    return power_product(_variable_names(len(exps)), exps) or "1"


def _json_int(value):
    """A JSON integer as is; a float, string or boolean raises TypeError."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError("expected a JSON integer, got %r" % (value,))
    return value


class HomogeneousPolynomial:
    """Homogeneous form: dict from exponent tuple to nonzero coefficient,
    a Fraction or (where a parameter occurs) a Scalar."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms):
        self.nvars = nvars
        self.degree = degree
        self.terms = terms

    @classmethod
    def zero(cls, nvars, degree):
        return cls(nvars, degree, {})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls.from_terms(nvars, {tuple(exps): coeff})

    @classmethod
    def from_terms(cls, nvars, terms, degree=None):
        if nvars < 0 or (degree is not None and degree < 0):
            raise DegreeMismatch("nvars %d and degree %s must not be negative"
                                 % (nvars, degree))
        clean = {}
        deg = degree
        for exps, coeff in terms.items():
            exps = tuple(map(index, exps))
            if len(exps) != nvars or any(v < 0 for v in exps):
                raise DegreeMismatch("bad exponent tuple %r" % (exps,))
            d = sum(exps)
            if deg is None:
                deg = d
            elif d != deg:
                raise DegreeMismatch("mixed degrees %d and %d" % (deg, d))
            coeff = exact(coeff)
            if not coeff:
                continue
            prev = clean.get(exps)
            coeff = coeff if prev is None else prev + coeff
            if not coeff:
                clean.pop(exps, None)
            else:
                clean[exps] = coeff
        if deg is None:
            raise DegreeMismatch("cannot infer the degree of an empty polynomial")
        return cls(nvars, deg, clean)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise DegreeMismatch("operands over %d and %d variables"
                                 % (self.nvars, other.nvars))

    def __add__(self, other):
        self._check_compat(other)
        if self.degree != other.degree:
            raise DegreeMismatch("cannot add degrees %d and %d"
                                 % (self.degree, other.degree))
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if not s:
                terms.pop(e, None)
            else:
                terms[e] = s
        return HomogeneousPolynomial(self.nvars, self.degree, terms)

    def __neg__(self):
        return HomogeneousPolynomial(
            self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = exact(coeff)
        if not coeff:
            return HomogeneousPolynomial.zero(self.nvars, self.degree)
        return HomogeneousPolynomial(
            self.nvars, self.degree, {e: c * coeff for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, HomogeneousPolynomial):
            return self.scale(other)
        self._check_compat(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                s = terms.get(e)
                s = ca * cb if s is None else s + ca * cb
                if not s:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return HomogeneousPolynomial(self.nvars, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def mul_monomial(self, exps):
        terms = {}
        for e, c in self.terms.items():
            ne = tuple(map(add, e, exps))
            terms[ne] = c
        return HomogeneousPolynomial(self.nvars, self.degree + sum(exps), terms)

    def partial(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[ne] = c * e[i]
        return HomogeneousPolynomial(self.nvars, self.degree - 1, terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            mono = monomial_string(e)
            cs = scalar_to_string(c)
            neg = cs.startswith("-") and "+" not in cs and "-" not in cs[1:]
            if neg:
                sign, cs = "-", cs[1:]
            else:
                sign = "+"
            if "+" in cs or "-" in cs[1:]:
                cs = "(%s)" % cs
            if mono == "1":
                body = cs
            elif cs == "1":
                body = mono
            else:
                body = "%s*%s" % (cs, mono)
            chunks.append((sign, body))
        return signed_sum(chunks)

    def __repr__(self):
        return "HomogeneousPolynomial(%s)" % self

    def to_json(self):
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [{"exps": list(e), "coeff": scalar_to_string(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        nvars = _json_int(data["nvars"])
        degree = _json_int(data["degree"])
        terms = {}
        for t in data["terms"]:
            exps = tuple(_json_int(v) for v in t["exps"])
            coeff = t["coeff"]
            if not isinstance(coeff, str):
                _json_int(coeff)  # a coefficient is a string or an integer
            terms[exps] = terms.get(exps, 0) + exact(str(coeff))
        return cls.from_terms(nvars, terms, degree=degree)


def _fermat_terms(d, nvars):
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = d
        terms[tuple(e)] = Fraction(1)
    return terms


def _koszul_row(leads, m):
    """Whether x^m is a multiple of one of the exponent tuples in leads."""
    return any(all(map(le, lt, m)) for lt in leads)


class GradedBasis:
    """Monomial basis of one graded slice of a Jacobian ring.

    pivots is None for the Fermat fast path (the ideal slice is monomial);
    otherwise it maps each pivot column, in increasing order, to its
    reduced row of the ideal slice, and columns gives the ambient columns
    as {monomial: column} in column order, so |basis| + len(pivots) =
    dim_ambient.
    """

    __slots__ = ("degree", "basis", "dim_ambient", "columns", "column_index",
                 "pivots", "index")

    def __init__(self, degree, basis, dim_ambient, columns=None, pivots=None):
        self.degree = degree
        self.basis = tuple(basis)
        self.dim_ambient = dim_ambient
        self.column_index = columns
        self.columns = None if columns is None else tuple(columns)
        self.pivots = pivots
        self.index = {m: i for i, m in enumerate(self.basis)}

    @property
    def dimension(self):
        return len(self.basis)


class HypersurfaceRing:
    """Jacobian ring of a homogeneous form, sliced by degree on demand."""

    def __init__(self, polynomial):
        if polynomial.is_zero():
            raise DegreeMismatch("the defining form must be nonzero")
        if polynomial.degree < 2:
            raise DegreeMismatch("the defining form must have degree >= 2")
        self.polynomial = polynomial
        self.nvars = polynomial.nvars
        self.degree = polynomial.degree
        self.socle_degree = self.nvars * (self.degree - 2)
        self.fermat_flag = self._is_fermat(polynomial)
        self._slices = {}

    @staticmethod
    def _is_fermat(p):
        # nvars distinct pure d-th powers, one per variable, each with
        # coefficient 1
        return (len(p.terms) == p.nvars
                and all(c == 1 and p.degree in e for e, c in p.terms.items()))

    @classmethod
    def fermat(cls, d, nvars):
        """The Jacobian ring of sum x_i^d: a new ring on each call, whose
        graded slices are built once per ring and freed with it."""
        return cls(HomogeneousPolynomial(nvars, d, _fermat_terms(d, nvars)))

    def quotient_basis(self, k):
        gb = self._slices.get(k)
        if gb is None:
            gb = self._build_slice(k)
            self._slices[k] = gb
        return gb

    def _build_slice(self, k):
        """R^k; OutOfRange before anything is listed past the bounds.

        A generic slice is the quotient of the degree-k monomials by the
        rows x^m * g_i, g_i = dF/dx_i, and its basis is the columns that
        are no pivot of their column-order rref.  That rref depends only on
        the rows' span, so the row x^m * g_i is left out when LT(g_j)
        divides x^m for some j < i, LT being the term at the least column,
        which is the largest exponent tuple.  Tuples of one degree compare
        in lex order, a monomial order.  Each row left out lies in the span
        of the rows kept, by induction on i and then on x^m, smallest
        tuple first: with x^m = x^u LT(g_j) and tail_j = g_j - LT(g_j),
            x^m g_i = x^u g_i g_j - x^u tail_j g_i.
        x^u g_i g_j is a sum of multiples of the rows x^(u+t) g_j, t a term
        of g_i, with j < i, and x^u tail_j g_i a sum of multiples of the
        rows x^(u+t) g_i, t a term of tail_j, with x^(u+t) < x^m since
        t < LT(g_j).  Each of these rows comes before (i, x^m), so it is
        kept or, by induction, in the span of the rows kept.
        """
        if k < 0:
            return GradedBasis(k, (), 0)
        nvars, cap, name = self.nvars, self.degree - 2, "slice %d" % k
        if self.fermat_flag:
            self._refuse_above(MAX_SLICE_MONOMIALS, "monomials", name,
                               bounded_slice_dimension(nvars, k, cap))
            basis = reduced_monomials(nvars, k, cap)
            return GradedBasis(k, basis, ambient_dimension(nvars, k))
        partials = [self.polynomial.partial(i) for i in range(nvars)]
        self._refuse_above(MAX_SLICE_MONOMIALS, "monomials", name,
                           ambient_dimension(nvars, k))
        self._refuse_above(MAX_SLICE_ENTRIES, "ideal row entries", name,
                           sum(len(g.terms) for g in partials)
                           * ambient_dimension(nvars, k - cap - 1))
        cols = monomials_of_degree(nvars, k)
        col_index = {m: i for i, m in enumerate(cols)}
        rows, leads = [], []  # leads: LT(g_j) of the nonzero g_j, j < i
        shifts = monomials_of_degree(nvars, k - cap - 1)
        for g in partials:
            if not g.terms:
                continue
            for m in shifts:
                if not _koszul_row(leads, m):
                    rows.append({col_index[tuple(map(add, e, m))]: c
                                 for e, c in g.terms.items()})
            leads.append(max(g.terms))
        pivots = dict(rref(rows, FRACTION_FIELD))
        basis = tuple(m for i, m in enumerate(cols) if i not in pivots)
        return GradedBasis(k, basis, len(cols), columns=col_index,
                           pivots=pivots)

    def _refuse_above(self, bound, unit, name, count):
        if count > bound:
            raise OutOfRange("%s of %r has %d %s, more than %d"
                             % (name, self, count, unit, bound))

    def normal_form(self, p):
        """Canonical representative of p in the slice basis."""
        if p.nvars != self.nvars:
            raise DegreeMismatch("polynomial over %d variables, ring over %d"
                                 % (p.nvars, self.nvars))
        if p.is_zero():
            return p
        if self.fermat_flag:
            cap = self.degree - 2
            terms = {e: c for e, c in p.terms.items() if max(e) <= cap}
            return HomogeneousPolynomial(p.nvars, p.degree, terms)
        gb = self.quotient_basis(p.degree)
        vec = {gb.column_index[e]: c for e, c in p.terms.items()}
        # a reduced row meets no other pivot column, so the pivot columns
        # of vec are the only ones to clear
        for pc in sorted(c for c in vec if c in gb.pivots):
            coef = vec.pop(pc)
            for c, v in gb.pivots[pc].items():
                if c == pc:
                    continue
                s = vec.get(c, 0) - coef * v
                if not s:
                    vec.pop(c, None)
                else:
                    vec[c] = s
        terms = {}
        for ci, coeff in vec.items():
            if coeff:
                terms[gb.columns[ci]] = coeff
        return HomogeneousPolynomial(p.nvars, p.degree, terms)

    def socle_monomial(self):
        gb = self.quotient_basis(self.socle_degree)
        if gb.dimension != 1:
            raise ValueError("socle has dimension %d, expected 1" % gb.dimension)
        return gb.basis[0]

    def __repr__(self):
        kind = "fermat" if self.fermat_flag else "general"
        return ("HypersurfaceRing(d=%d, nvars=%d, %s)"
                % (self.degree, self.nvars, kind))


class LinearMap:
    """Matrix of a linear map between two monomial-based graded slices.

    Rows are indexed by the codomain basis, columns by the domain basis.
    entries maps (row, col) to a nonzero coefficient (Fraction or Scalar).
    to_json is its one serialiser; nothing reads a LinearMap back."""

    __slots__ = ("domain", "codomain", "entries")

    def __init__(self, domain, codomain, entries):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.entries = {k: v for k, v in entries.items() if v}

    @property
    def nrows(self):
        return len(self.codomain)

    @property
    def ncols(self):
        return len(self.domain)

    def entry(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def rows_as_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.entries == other.entries)

    def to_json(self):
        items = sorted(self.entries.items())
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[i, j, scalar_to_string(v)] for (i, j), v in items],
        }

    def __repr__(self):
        return "LinearMap(%d x %d, %d nonzero)" % (self.nrows, self.ncols,
                                                   len(self.entries))


def mult_map(ring, p, j):
    """Matrix of multiplication by p from slice j to slice j + deg(p)."""
    if p.nvars != ring.nvars:
        raise DegreeMismatch("polynomial over %d variables, ring over %d"
                             % (p.nvars, ring.nvars))
    dom = ring.quotient_basis(j)
    cod = ring.quotient_basis(j + p.degree)
    entries = {}
    for col, m in enumerate(dom.basis):
        q = ring.normal_form(p.mul_monomial(m))
        for e, c in q.terms.items():
            entries[(cod.index[e], col)] = c
    return LinearMap(dom.basis, cod.basis, entries)


def pairing_matrix(ring, p, j, k):
    """Socle pairing (u, v) -> socle coefficient of p*u*v on slices j, k;
    past MAX_SLICE_MONOMIALS products u*v, OutOfRange before any normal form."""
    if p.degree + j + k != ring.socle_degree:
        raise DegreeMismatch(
            "deg(p) + j + k = %d is not the socle degree %d"
            % (p.degree + j + k, ring.socle_degree))
    bj = ring.quotient_basis(j)
    bk = ring.quotient_basis(k)
    ring._refuse_above(MAX_SLICE_MONOMIALS, "monomial products",
                       "the pairing of slices %d and %d" % (j, k),
                       bj.dimension * bk.dimension)
    soc = ring.socle_monomial()
    pr = ring.normal_form(p)
    entries = {}
    for i, u in enumerate(bj.basis):
        pu = ring.normal_form(pr.mul_monomial(u))
        for l, v in enumerate(bk.basis):
            c = ring.normal_form(pu.mul_monomial(v)).coefficient(soc)
            if c:
                entries[(i, l)] = c
    return LinearMap(bk.basis, bj.basis, entries)


def rank_kernel(linmap):
    """Rank and kernel basis of a LinearMap over the field of fractions.

    Kernel vectors are dense tuples, of Fraction when no entry has
    parameters.
    """
    n = linmap.ncols
    r, kern = rank_and_kernel(linmap.rows_as_dicts(), n)
    vecs = [tuple(v.get(c, Fraction(0)) for c in range(n))
            for v in kern]
    return r, vecs


def determinant(linmap):
    """Determinant of a square LinearMap as a Scalar."""
    if linmap.nrows != linmap.ncols:
        raise ValueError("determinant of a %d x %d map"
                         % (linmap.nrows, linmap.ncols))
    return Scalar.from_fraction(_det_rows(linmap.rows_as_dicts(),
                                          linmap.nrows))


class TensorSum:
    """Finite sum of decomposable tensors c * (left (x) right) over a ring's
    graded slices.  All lefts share one degree, all rights another."""

    __slots__ = ("nvars", "left_degree", "right_degree", "summands")

    def __init__(self, summands):
        summands = [(exact(c), l, r) for c, l, r in summands]
        summands = [(c, l, r) for c, l, r in summands if c]
        nvars = left_degree = right_degree = None
        for _, l, r in summands:
            if l.nvars != r.nvars:
                raise DegreeMismatch("tensor factors over different variable counts")
            if nvars is None:
                nvars, left_degree, right_degree = l.nvars, l.degree, r.degree
            elif (l.nvars, l.degree, r.degree) != (nvars, left_degree, right_degree):
                raise DegreeMismatch("summands of mixed shape in a tensor sum")
        self.nvars = nvars
        self.left_degree = left_degree
        self.right_degree = right_degree
        self.summands = tuple(summands)

    @classmethod
    def simple(cls, left, right, coeff=1):
        return cls([(coeff, left, right)])

    def is_zero(self):
        return not self.summands

    def __add__(self, other):
        return TensorSum(list(self.summands) + list(other.summands))

    def scale(self, coeff):
        coeff = exact(coeff)
        return TensorSum([(c * coeff, l, r) for c, l, r in self.summands])

    def monomial_expansion(self):
        """Collect into monomial (x) monomial coefficients: dict keyed by
        (left_exps, right_exps)."""
        out = {}
        for c, l, r in self.summands:
            for el, cl in l.terms.items():
                for er, cr in r.terms.items():
                    key = (el, er)
                    s = out.get(key)
                    v = c * cl * cr
                    s = v if s is None else s + v
                    if not s:
                        out.pop(key, None)
                    else:
                        out[key] = s
        return out

    def __repr__(self):
        return "TensorSum(%d summands)" % len(self.summands)
