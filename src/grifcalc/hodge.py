"""Primitive Hodge numbers, Euler characteristics, and odd-cohomology
vanishing checks for smooth hypersurfaces and complete intersections.

Two independent methods are implemented.

Hypersurfaces use the residue grading: for a smooth degree-d hypersurface
of dimension m the primitive piece h^{m-q,q} equals the dimension of the
graded slice R^{(q+1)d-(m+2)} of the Jacobian ring, and Hodge numbers are
deformation invariants, so the Fermat ring (whose slice dimensions are
bounded-exponent monomial counts) computes them.

Complete intersections use Hirzebruch's generating function for the chi_y
genus (Topological Methods in Algebraic Geometry): for Y_m a smooth
complete intersection of multidegree (d_1, ..., d_r) and dimension m,

  sum_m chi_y(Y_m) z^{m+r} = 1/((1+zy)(1-z))
      * prod_i [(1+zy)^{d_i} - (1-z)^{d_i}] / [(1+zy)^{d_i} + y(1-z)^{d_i}],

where chi_y(Y_m) is a polynomial of degree m in y.  At each integer
y = 0..m+1 the numerator and denominator are integer polynomials in z, the
denominator with constant term (1+y)^r, nonzero; one division of
truncated series reads off the value, and the values are interpolated
exactly; a nonzero y^{m+1} coefficient or a non-integer coefficient is
rejected.  h^{p,m-p} then falls out of chi_p = sum_q (-1)^q h^{p,q}
together with weak Lefschetz (off-middle cohomology is that of projective
space).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index

from .errors import OutOfRange, Record


class HodgeVector(Record):
    """Primitive middle Hodge numbers (h^{m,0}, h^{m-1,1}, ..., h^{0,m}).
    Frozen; vectors compare and hash as (m, values)."""

    __slots__ = ("m", "values")

    def __init__(self, m, values):
        if len(values) != m + 1:
            raise ValueError("expected %d values, got %d"
                             % (m + 1, len(values)))
        if any(v < 0 for v in values):
            raise ValueError("negative Hodge number in %r" % (values,))
        if tuple(reversed(values)) != values:
            raise ValueError("Hodge vector is not symmetric: %r" % (values,))
        Record.__init__(self, m, values)

    @property
    def primitive_betti(self):
        return sum(self.values)

    def to_json(self):
        return list(self.values)


class CIData(Record):
    """A smooth complete intersection of the given multidegree and
    dimension m inside P^{m + len(degrees)}.  Frozen."""

    __slots__ = ("degrees", "m")

    def __init__(self, degrees, m):
        degrees = tuple(map(index, degrees))
        m = index(m)
        if not degrees:
            raise ValueError("degrees must be non-empty")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be >= 1")
        if m < 0:
            raise ValueError("dimension must be >= 0")
        Record.__init__(self, degrees, m)

    @property
    def ambient(self):
        return self.m + len(self.degrees)


# the largest degree and dimension hypersurface_prim_hodge accepts: its
# m + 1 slice counts take about m^2 big-integer binomials, 0.025 s on one
# core at 100/100
MAX_HYPERSURFACE_SIZE = 100


def bounded_slice_dimension(nvars, k, cap):
    """Number of degree-k monomials in nvars variables with every exponent
    <= cap: the dimension of the Fermat Jacobian ring slice R^k (cap=d-2).
    Inclusion-exclusion over the j exponents forced past cap (Stanley,
    Enumerative Combinatorics I): sum_j (-1)^j C(nvars, j)
    C(k - j(cap+1) + nvars-1, nvars-1), at most nvars + 1 terms."""
    if k < 0 or k > nvars * cap:
        return 0
    if nvars == 0:
        return 1
    return sum((-1) ** j * math.comb(nvars, j)
               * math.comb(k - j * (cap + 1) + nvars - 1, nvars - 1)
               for j in range(k // (cap + 1) + 1))


def hypersurface_prim_hodge(d, m):
    """Primitive middle Hodge numbers of a smooth degree-d hypersurface of
    dimension m, through the residue grading of the Fermat Jacobian ring:
    h^{m-q,q} is bounded_slice_dimension(m + 2, (q+1)d - (m+2), d - 2).
    Degree or dimension above MAX_HYPERSURFACE_SIZE raises OutOfRange."""
    if d < 1 or m < 1:
        raise ValueError("need degree >= 1 and dimension >= 1")
    if max(d, m) > MAX_HYPERSURFACE_SIZE:
        raise OutOfRange("degree and dimension must be at most %d"
                         % MAX_HYPERSURFACE_SIZE)
    nvars = m + 2
    return HodgeVector(m, tuple(
        bounded_slice_dimension(nvars, (q + 1) * d - nvars, d - 2)
        for q in range(m + 1)))


# the largest dimension and number of degrees that chi_y_coefficients and
# euler_characteristic accept, each degree being at most
# MAX_HYPERSURFACE_SIZE: each of the m + 2 chi_y evaluations makes about
# 2r(m+r)^2 big-integer products and one series division over Q of length
# m + r + 1, 0.35 s in all at dimension 20 with twenty degrees of 100
# (0.3 s with the 20 degrees 81..100)
MAX_CI_SIZE = 20


def _check_ci_size(ci):
    if (max(ci.m, len(ci.degrees)) > MAX_CI_SIZE
            or max(ci.degrees) > MAX_HYPERSURFACE_SIZE):
        raise OutOfRange("dimension and number of degrees must be at most "
                         "%d, and every degree at most %d"
                         % (MAX_CI_SIZE, MAX_HYPERSURFACE_SIZE))


# truncated power series as coefficient lists of length order

def _series_mul(a, b, order):
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        if ai:
            for j, bj in enumerate(b[:order - i]):
                out[i + j] += ai * bj
    return out


def _series_inv(a, order):
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, order):
        acc = sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
        out.append(-inv0 * acc)
    return out


def _chi_y_at(ci, y):
    """chi_y(Y) at the integer y >= 0: the z^(m+r) coefficient of the
    generating function, its numerator and denominator multiplied out with
    int coefficients and divided once."""
    top = ci.ambient
    num, den = [1], [1, y - 1, -y]  # den starts as (1 + zy)(1 - z)
    for d in ci.degrees:
        plus = [math.comb(d, k) * y ** k for k in range(min(d, top) + 1)]
        minus = [math.comb(d, k) * (-1) ** k for k in range(min(d, top) + 1)]
        num = _series_mul(num, [p - q for p, q in zip(plus, minus)], top + 1)
        den = _series_mul(den, [p + y * q for p, q in zip(plus, minus)],
                          top + 1)
    inv = _series_inv(den, top + 1)
    return sum(c * inv[top - k] for k, c in enumerate(num))


def chi_y_coefficients(ci):
    """The integers chi_p = chi(Y, Omega^p) for p = 0..m: chi_y(Y) is
    evaluated exactly at y = 0..m+1 and interpolated by Newton divided
    differences.  The extra point must give a zero y^{m+1} coefficient.
    Sizes above MAX_CI_SIZE raise OutOfRange."""
    _check_ci_size(ci)
    m = ci.m
    diffs = [_chi_y_at(ci, y) for y in range(m + 2)]
    for k in range(1, m + 2):  # divided differences on the nodes 0..m+1
        for i in range(m + 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / k
    poly = [diffs[m + 1]]  # Newton form to powers of y by Horner's rule
    for k in range(m, -1, -1):  # poly <- poly * (y - k) + diffs[k]
        poly = [s - k * p for s, p in zip([0] + poly, poly + [0])]
        poly[0] += diffs[k]
    if poly[m + 1]:
        raise ArithmeticError("chi_y has degree above m = %d" % m)
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("chi_p must be an integer")
    return [int(c) for c in poly[:m + 1]]


def ci_prim_hodge(ci):
    """Primitive middle Hodge numbers of a smooth complete intersection,
    from its chi_y genus plus weak Lefschetz.  Sizes above MAX_CI_SIZE
    raise OutOfRange."""
    m = ci.m
    chi = chi_y_coefficients(ci)
    values = []
    for q in range(m + 1):
        p = m - q
        off_middle = 1 if 2 * p != m else 0
        h = (-1) ** (m - p) * (chi[p] - (-1) ** p * off_middle)
        if 2 * p == m:
            h -= 1  # remove the hyperplane-power class from the middle
        values.append(h)
    return HodgeVector(m, tuple(values))


def euler_characteristic(ci):
    """Topological Euler characteristic via the top Chern class:
    (prod d_i) * coeff_{H^m} [(1+H)^{N+1} / prod (1 + d_i H)].  Sizes
    above MAX_CI_SIZE raise OutOfRange."""
    _check_ci_size(ci)
    order = ci.m + 1
    cls = [math.comb(ci.ambient + 1, k) for k in range(order)]
    for d in ci.degrees:
        # divide by 1 + d*H in place: its inverse sum_k (-d)^k H^k is integral
        for k in range(1, order):
            cls[k] -= d * cls[k - 1]
    return cls[ci.m] * math.prod(ci.degrees)


def jacobian_vanishing_check(ci, k):
    """Whether H^{2k-1} of the complete intersection vanishes (so the
    intermediate Jacobian J^k is zero).

    Off the middle dimension this is weak Lefschetz (projective space has
    no odd cohomology).  In the middle dimension the primitive numbers
    decide it.
    """
    i = 2 * k - 1
    if i > 2 * ci.m:
        raise ValueError("cohomology degree %d exceeds 2m = %d" % (i, 2 * ci.m))
    if i != ci.m:
        return True
    return ci_prim_hodge(ci).primitive_betti == 0
