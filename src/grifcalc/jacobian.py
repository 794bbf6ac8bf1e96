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
from operator import index

from .errors import DegreeMismatch
from .linalg import (
    FRACTION_FIELD,
    determinant as _det_rows,
    rank_and_kernel,
    rref,
)
from .scalar import (Scalar, exact, parse as parse_scalar, power_product,
                     scalar_to_string, signed_sum)


def reduced_monomials(nvars, k, cap):
    """Degree-k exponent tuples with every entry <= cap, descending grlex."""
    if k < 0 or k > nvars * cap:
        return ()
    if nvars == 0:
        return ((),)
    out = []
    exps = [0] * nvars

    def fill(i, left):
        # entries i.. share the degree left, and the entries after i can
        # hold at most room of it
        if left == 0 or i == nvars - 1:
            exps[i:] = [left] + [0] * (nvars - 1 - i)
            out.append(tuple(exps))
            return
        room = (nvars - 1 - i) * cap
        for e in range(min(left, cap), max(left - room, 0) - 1, -1):
            exps[i] = e
            fill(i + 1, left - e)

    fill(0, k)
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


def _parse_coefficient(text):
    """A JSON coefficient: a Fraction unless a parameter occurs."""
    s = parse_scalar(str(text))
    return s.constant_value() if s.is_constant() else s


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
                e = tuple(x + y for x, y in zip(ea, eb))
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
            ne = tuple(x + y for x, y in zip(e, exps))
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
            terms[exps] = terms.get(exps, 0) + _parse_coefficient(coeff)
        return cls.from_terms(nvars, terms, degree=degree)


def _fermat_terms(d, nvars):
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = d
        terms[tuple(e)] = Fraction(1)
    return terms


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
        return p.terms == _fermat_terms(p.degree, p.nvars)

    @classmethod
    @lru_cache(maxsize=None)
    def fermat(cls, d, nvars):
        """The Jacobian ring of sum x_i^d, one shared instance per (d, nvars)
        so that its graded slices are built once per process."""
        return cls(HomogeneousPolynomial(nvars, d, _fermat_terms(d, nvars)))

    def quotient_basis(self, k):
        gb = self._slices.get(k)
        if gb is None:
            gb = self._build_slice(k)
            self._slices[k] = gb
        return gb

    def _build_slice(self, k):
        if k < 0:
            return GradedBasis(k, (), 0)
        if self.fermat_flag:
            basis = reduced_monomials(self.nvars, k, self.degree - 2)
            return GradedBasis(k, basis, ambient_dimension(self.nvars, k))
        cols = monomials_of_degree(self.nvars, k)
        col_index = {m: i for i, m in enumerate(cols)}
        rows = []
        shifts = monomials_of_degree(self.nvars, k - (self.degree - 1))
        partials = [self.polynomial.partial(i) for i in range(self.nvars)]
        for g in partials:
            for m in shifts:
                row = {}
                for e, c in g.terms.items():
                    ne = tuple(x + y for x, y in zip(e, m))
                    row[col_index[ne]] = c
                if row:
                    rows.append(row)
        pivots = dict(rref(rows, FRACTION_FIELD))
        basis = tuple(m for i, m in enumerate(cols) if i not in pivots)
        return GradedBasis(k, basis, len(cols), columns=col_index,
                           pivots=pivots)

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
    """Socle pairing (u, v) -> socle coefficient of p*u*v on slices j, k."""
    if p.degree + j + k != ring.socle_degree:
        raise DegreeMismatch(
            "deg(p) + j + k = %d is not the socle degree %d"
            % (p.degree + j + k, ring.socle_degree))
    soc = ring.socle_monomial()
    bj = ring.quotient_basis(j)
    bk = ring.quotient_basis(k)
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
