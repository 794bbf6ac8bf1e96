"""Socle pairing matrices and the rational invariant on kernel tensors.

Works inside the Jacobian ring of the Fermat cubic in 8 variables (socle
degree 8, dim R^1 = dim R^7 = 8).  A "triple" bundles a degree-4 class
polynomial P with symbolic coefficients and a degree-2 form e; the pairing
(u, v) -> socle coefficient of P*e*u*v on R^1 x R^1 is an 8 x 8 symmetric
matrix M whose determinant certifies that multiplication by P*e is an
isomorphism R^1 -> R^7.

delta_nu evaluates the induced invariant on tensors w = sum Q_i (x) R_i in
the kernel of the multiplication map R^3 (x) R^3 -> R^6: each summand
contributes the socle coefficient of P * Q_i * f^{-1}(P * R_i), where f is
multiplication by P*e from R^1 to R^7 and the inverse is computed through
the pairing matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateDenominator, DegreeMismatch, NotIsomorphism
from .jacobian import (
    HomogeneousPolynomial,
    HypersurfaceRing,
    determinant,
    mult_map,
    pairing_matrix,
    rank_kernel,
)
from .linalg import FRACTION_FIELD, rank_and_kernel, solve
from .mulkernel import _monomial, tensor_in_kernel
from .scalar import ONE, ZERO, Scalar

NVARS = 8


@dataclass(frozen=True)
class TripleData:
    """A class polynomial P (degree 4), a quadric e, and the two front
    coefficients used to form P."""

    p: HomogeneousPolynomial
    e: HomogeneousPolynomial
    a: Scalar | Fraction
    b: Scalar | Fraction


def _coeff(value, default_name):
    return Scalar.param(default_name) if value is None else value


def distinguished_triple(a=None, b=None, e_denominator="B"):
    """The standard 8-variable triple with pinned symbols A, B, C, D, h.

    P = a*(A*x0x1x2x3 + C*x4x5x6x7) + b*(B*x0x1x2x4 + D*x3x5x6x7)
    e = x0x1 + (1/C)*x2x3 + (1/A)*x4x5 + x6x7 + (h/B)*x3x5

    a and b default to free parameters.  e_denominator chooses the symbol
    under h in the last term of e ("B" or "D"); the two conventions give
    the same pairing matrix except for the (6, 7) entry.
    """
    if e_denominator not in ("B", "D"):
        raise ValueError("e_denominator must be 'B' or 'D'")
    sa = _coeff(a, "a")
    sb = _coeff(b, "b")
    A, B, C, D, h = (Scalar.param(n) for n in "ABCDh")
    p = (_monomial(NVARS, (0, 1, 2, 3), sa * A)
         + _monomial(NVARS, (4, 5, 6, 7), sa * C)
         + _monomial(NVARS, (0, 1, 2, 4), sb * B)
         + _monomial(NVARS, (3, 5, 6, 7), sb * D))
    last = h / (B if e_denominator == "B" else D)
    e = (_monomial(NVARS, (0, 1)) + _monomial(NVARS, (2, 3), 1 / C)
         + _monomial(NVARS, (4, 5), 1 / A) + _monomial(NVARS, (6, 7))
         + _monomial(NVARS, (3, 5), last))
    return TripleData(p=p, e=e, a=sa, b=sb)


def iso_matrix(triple):
    """Pairing matrix of P*e on R^1 x R^1 (8 x 8, symmetric)."""
    ring = HypersurfaceRing.fermat(3, NVARS)
    pe = ring.normal_form(triple.p * triple.e)
    return pairing_matrix(ring, pe, 1, 1)


def iso_det(triple):
    """(pairing matrix, determinant) for the triple."""
    m = iso_matrix(triple)
    return m, determinant(m)


def rho_check(triple, seed=0):
    """Injectivity of multiplication by e from R^1 to R^3 at a random
    rational specialization of the symbols (seeded, reproducible).

    Full rank at one specialization certifies full symbolic rank.
    """
    ring = HypersurfaceRing.fermat(3, NVARS)
    params = set()
    for c in triple.e.terms.values():
        if isinstance(c, Scalar):
            params.update(c.params)
    rng = random.Random(seed)
    assignment = {name: Fraction(rng.randint(1, 10 ** 6)) for name in sorted(params)}
    terms = {}
    for e, c in triple.e.terms.items():
        v = c.specialize(assignment) if isinstance(c, Scalar) else c
        if v:
            terms[e] = v
    e_specialized = HomogeneousPolynomial(NVARS, triple.e.degree, terms)
    if e_specialized.is_zero():
        return False
    m = mult_map(ring, e_specialized, 1)
    r, _ = rank_kernel(m, mode="exact")
    return r == m.ncols


def delta_nu(triple, w):
    """Invariant of a kernel tensor w = sum c_i * Q_i (x) R_i.

    Raises NotInKernel when the multiplication map does not kill w, and
    NotIsomorphism when the pairing matrix of the triple is singular.
    """
    ring = HypersurfaceRing.fermat(3, NVARS)
    if w.is_zero():
        return ZERO
    if w.nvars != NVARS or w.left_degree != 3 or w.right_degree != 3:
        raise DegreeMismatch("delta_nu expects degree (3, 3) tensors over 8 variables")
    tensor_in_kernel(ring, w)
    m, det = iso_det(triple)
    if det.is_zero():
        raise NotIsomorphism("pairing matrix is singular for this triple")
    rows = m.rows_as_dicts()
    n = m.ncols
    basis1 = ring.quotient_basis(1).basis
    soc = ring.socle_monomial()
    total = ZERO
    for c, q, r in w.summands:
        u = ring.normal_form(triple.p * r)
        rhs = []
        for mono in basis1:
            rhs.append(ring.normal_form(u.mul_monomial(mono)).coefficient(soc))
        y = solve(rows, n, rhs, FRACTION_FIELD)
        pre = HomogeneousPolynomial.from_terms(
            NVARS, {basis1[j]: y[j] for j in range(n)}, degree=1)
        val = ring.socle_coefficient(triple.p * q * pre)
        total = total + val * c
    return total


def independence_rank(pairs):
    """Rank over Q of the values a*b/(a + b*h) for the given (a, b) pairs.

    Returns (rank, relations); relations is a list of rational coefficient
    tuples c with sum c_i * v_i = 0.  A pair (0, 0) has no value and raises
    DegenerateDenominator.
    """
    h = Scalar.param("h")
    values = []
    for i, (a, b) in enumerate(pairs):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 and b == 0:
            raise DegenerateDenominator("pair %d is (0, 0)" % i)
        values.append((a * b) / (a + b * h))
    common = ONE
    for v in values:
        common = common * Scalar(v.den)
    # cleared[i] = v_i * prod_j den_j, a polynomial in h up to a rational scale
    cleared = []
    for v in values:
        w = v * common
        if w.den.params or w.den.constant_value() == 0:
            raise ArithmeticError("cleared value %s is not a polynomial in h"
                                  % (w,))
        cleared.append(w)
    rows = {}
    for i, w in enumerate(cleared):
        poly = w.num
        scale = w.den.constant_value()
        if poly.is_zero():
            continue
        if poly.params == ():
            rows.setdefault(0, {})[i] = poly.constant_value() / scale
        else:
            for exps, coeff in poly.terms.items():
                rows.setdefault(exps[0], {})[i] = coeff / scale
    row_list = [rows[d] for d in sorted(rows)]
    rank, kern = rank_and_kernel(row_list, len(pairs), FRACTION_FIELD)
    relations = []
    for vec in kern:
        relations.append(tuple(vec.get(i, Fraction(0)) for i in range(len(pairs))))
    return rank, relations
