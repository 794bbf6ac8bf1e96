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
multiplication by P*e from R^1 to R^7.  In the R^1 basis that is
<s(P*Q_i), y_i> with M y_i = s(P*R_i), s(v) being the socle pairing of v
against R^1; the solve through M also proves M invertible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateDenominator, NotIsomorphism, OutOfRange
from .jacobian import (
    HomogeneousPolynomial,
    HypersurfaceRing,
    TensorSum,
    determinant,
    mult_map,
    pairing_matrix,
)
from .linalg import rank, solve
from .mulkernel import index_monomial, tensor_in_kernel
from .scalar import ZERO, Scalar, exact

NVARS = 8

# relations are dense n x n: 500 equal pairs take 0.27 s and 44 MB peak in
# a `grifcalc independence --json` subprocess (1,000: 0.55 s and 108 MB)
MAX_PAIRS = 500


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
    p = (index_monomial(NVARS, (0, 1, 2, 3), sa * A)
         + index_monomial(NVARS, (4, 5, 6, 7), sa * C)
         + index_monomial(NVARS, (0, 1, 2, 4), sb * B)
         + index_monomial(NVARS, (3, 5, 6, 7), sb * D))
    last = h / (B if e_denominator == "B" else D)
    e = (index_monomial(NVARS, (0, 1)) + index_monomial(NVARS, (2, 3), 1 / C)
         + index_monomial(NVARS, (4, 5), 1 / A)
         + index_monomial(NVARS, (6, 7)) + index_monomial(NVARS, (3, 5), last))
    return TripleData(p=p, e=e, a=sa, b=sb)


def distinguished_tensor(swap=False):
    """The kernel tensor x4x5x6/A (x) x3x5x7/B, or its swap, on which the
    distinguished triple's invariant is a*b/(a + b*h)."""
    q = index_monomial(NVARS, (4, 5, 6), 1 / Scalar.param("A"))
    r = index_monomial(NVARS, (3, 5, 7), 1 / Scalar.param("B"))
    if swap:
        q, r = r, q
    return TensorSum.simple(q, r)


def iso_matrix(triple):
    """Pairing matrix of P*e on R^1 x R^1 (8 x 8, symmetric)."""
    ring = HypersurfaceRing.fermat(3, NVARS)
    return pairing_matrix(ring, triple.p * triple.e, 1, 1)


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
    return rank(m.rows_as_dicts()) == m.ncols


def _socle_row(ring, v):
    """s(v): the socle pairing of a degree-7 form v against the R^1 basis,
    row 0 of its pairing matrix on R^0 x R^1."""
    m = pairing_matrix(ring, v, 0, 1)
    return [m.entry(0, j) for j in range(m.ncols)]


def delta_nu(triple, w):
    """Invariant of a kernel tensor w = sum c_i * Q_i (x) R_i.

    Raises DegreeMismatch unless w is a degree (3, 3) tensor over 8
    variables, NotInKernel when the multiplication map does not kill w,
    and NotIsomorphism when the pairing matrix of the triple is singular,
    which the solve through it detects; no determinant is taken.
    """
    ring = HypersurfaceRing.fermat(3, NVARS)
    if w.is_zero():
        return ZERO
    tensor_in_kernel(ring, w)
    m = iso_matrix(triple)
    rows = m.rows_as_dicts()
    total = ZERO
    for c, q, r in w.summands:
        try:
            y = solve(rows, m.ncols, _socle_row(ring, triple.p * r))
        except ValueError:
            raise NotIsomorphism("pairing matrix is singular for this triple")
        s_q = _socle_row(ring, triple.p * q)
        val = sum((sj * yj for sj, yj in zip(s_q, y) if sj), ZERO)
        total = total + val * c
    return total


def independence_rank(pairs):
    """Rank over Q of the values a*b/(a + b*h) for the given (a, b) pairs.

    Returns (rank, relations); relations is a list of rational coefficient
    tuples c with sum c_i * v_i = 0.  A pair (0, 0) has no value and raises
    DegenerateDenominator; more than MAX_PAIRS pairs raise OutOfRange.

    For ab != 0 the value is a/(h + a/b), and the 1/(h + r) with distinct r
    are independent as their poles differ, so the rank counts the distinct
    ratios a/b.  A zero value v_j gives the relation e_j, and a pair j in
    the ratio class first met at pair i gives e_j - (a_j/a_i)*e_i.
    """
    if len(pairs) > MAX_PAIRS:
        raise OutOfRange("at most %d pairs, got %d" % (MAX_PAIRS, len(pairs)))
    first = {}  # ratio a/b -> (i, a_i) for the first pair with that ratio
    relations = []
    for j, (a, b) in enumerate(pairs):
        # exact refuses a float or a bool, Fraction a Scalar
        a, b = Fraction(exact(a)), Fraction(exact(b))
        if a == 0 and b == 0:
            raise DegenerateDenominator("pair %d is (0, 0)" % j)
        rel = [Fraction(0)] * len(pairs)
        rel[j] = Fraction(1)
        if a * b:
            i, ai = first.setdefault(a / b, (j, a))
            if i == j:
                continue
            rel[i] = -a / ai
        relations.append(tuple(rel))
    return len(first), relations
