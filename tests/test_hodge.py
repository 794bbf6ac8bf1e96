"""Primitive Hodge numbers, Euler characteristics, and odd-cohomology
vanishing.  Expected values were frozen from two independent routes:
bounded-exponent monomial counts for the residue method and the signed
full-diamond sum against the Chern-class Euler characteristic for the
series method."""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from grifcalc.cli import run_command
from grifcalc.errors import OutOfRange
from grifcalc.hodge import (MAX_CI_SIZE, MAX_HYPERSURFACE_SIZE, CIData,
                            HodgeVector, _chi_y_at, _series_inv, _series_mul,
                            bounded_slice_dimension, chi_y_coefficients,
                            ci_prim_hodge, euler_characteristic,
                            hypersurface_prim_hodge, jacobian_vanishing_check)
from grifcalc.scalar import ONE, ZERO, Scalar


def full_diamond_euler(ci, prim=None):
    # the signed sum (-1)^{p+q} h^{p,q} over the full Hodge diamond: the
    # m+1 hyperplane-power classes plus the signed primitive middle
    # entries; an oracle for euler_characteristic's Chern-class route
    if prim is None:
        prim = ci_prim_hodge(ci)
    return (ci.m + 1) + (-1) ** ci.m * prim.primitive_betti


def test_cubic_sevenfold_middle():
    assert hypersurface_prim_hodge(3, 7).values == (0, 0, 1, 84, 84, 1, 0, 0)


def test_cubic_sixfold_middle():
    assert hypersurface_prim_hodge(3, 6).values == (0, 0, 8, 70, 8, 0, 0)


def test_classical_surfaces_and_threefolds():
    assert hypersurface_prim_hodge(4, 2).values == (1, 19, 1)
    assert hypersurface_prim_hodge(5, 3).values == (1, 101, 101, 1)
    assert hypersurface_prim_hodge(3, 3).values == (0, 5, 5, 0)
    assert hypersurface_prim_hodge(3, 2).values == (0, 6, 0)


def test_quadrics_have_almost_no_primitive_cohomology():
    assert hypersurface_prim_hodge(2, 4).values == (0, 0, 1, 0, 0)
    assert hypersurface_prim_hodge(2, 3).values == (0, 0, 0, 0)
    assert hypersurface_prim_hodge(2, 6).values == (0, 0, 0, 1, 0, 0, 0)


def test_residue_and_series_methods_agree():
    for d in (2, 3, 4, 5):
        for m in range(1, 8):
            residue = hypersurface_prim_hodge(d, m)
            series = ci_prim_hodge(CIData((d,), m))
            assert residue.values == series.values, (d, m)


# Oracle: hypersurface_prim_hodge as it was before all q came from one
# pass, one convolution per q, kept verbatim apart from the names.

def oracle_bounded_slice_dimension(nvars, k, cap):
    if k < 0 or k > nvars * cap:
        return 0
    coeffs = [1]
    for _ in range(nvars):
        new = [0] * min(len(coeffs) + cap, k + 1)
        for i, c in enumerate(coeffs):
            for e in range(cap + 1):
                if i + e <= k:
                    new[i + e] += c
        coeffs = new
    return coeffs[k] if k < len(coeffs) else 0


def oracle_hypersurface_prim_hodge(d, m):
    if d < 1 or m < 1:
        raise ValueError("need degree >= 1 and dimension >= 1")
    nvars = m + 2
    values = []
    for q in range(m + 1):
        k = (q + 1) * d - (m + 2)
        values.append(oracle_bounded_slice_dimension(nvars, k, d - 2)
                      if k >= 0 else 0)
    return HodgeVector(m, tuple(values))


def test_one_pass_matches_the_per_q_oracle():
    for d in range(1, 13):
        for m in range(1, 13):
            assert (hypersurface_prim_hodge(d, m)
                    == oracle_hypersurface_prim_hodge(d, m)), (d, m)


def test_bounded_slice_dimension_matches_the_oracle():
    for nvars in range(0, 7):
        for cap in range(-1, 5):
            for k in range(-1, nvars * max(cap, 0) + 3):
                assert (bounded_slice_dimension(nvars, k, cap)
                        == oracle_bounded_slice_dimension(nvars, k, cap))


def test_bounded_slice_dimension_takes_no_time_linear_in_k():
    # inclusion-exclusion makes at most nvars + 1 pairs of binomials; the
    # convolution it replaced took 0.16 s and 49 MB at this k
    start = time.perf_counter()
    count = bounded_slice_dimension(2, 10 ** 6 - 2, 10 ** 6 - 2)
    assert time.perf_counter() - start < 0.02
    assert count == 10 ** 6 - 1


def test_hypersurface_size_is_bounded():
    top = MAX_HYPERSURFACE_SIZE
    hv = hypersurface_prim_hodge(top, top)
    # at d = m, h^{m,0} = 0 and h^{m-1,1} counts every monomial of degree
    # m-2 in m+2 variables, none of whose exponents can exceed d-2
    assert hv.values[0] == 0
    assert hv.values[1] == math.comb(2 * top - 1, top + 1)
    for d, m in ((top + 1, 3), (3, top + 1)):
        with pytest.raises(OutOfRange):
            hypersurface_prim_hodge(d, m)
    code, out = run_command(["hodge", "hypersurface", "--degree", str(top),
                             "--dim", str(top), "--json"])
    assert code == 0
    assert out == '{"prim":[%s]}' % ",".join(str(v) for v in hv.values)
    code, out = run_command(["hodge", "hypersurface", "--degree",
                             str(top + 1), "--dim", "50"])
    assert code == 2 and "at most %d" % top in out


def _hodge_ci(degrees, m):
    return run_command(["hodge", "ci", "--degrees",
                        ",".join(str(d) for d in degrees), "--dim", str(m),
                        "--json"])


def test_complete_intersection_size_is_bounded():
    top, dmax = MAX_CI_SIZE, MAX_HYPERSURFACE_SIZE
    degrees = tuple(range(dmax - top + 1, dmax + 1))
    start = time.perf_counter()
    code, out = _hodge_ci(degrees, top)
    # 0.3 s here; the budget leaves room for a loaded machine
    assert time.perf_counter() - start < 20.0
    assert code == 0
    doc = json.loads(out)
    ci = CIData(degrees, top)
    prim = HodgeVector(top, tuple(doc["prim"]))
    assert doc["euler"] == full_diamond_euler(ci, prim)
    for degrees, m in (((3,), top + 1), ((3,) * (top + 1), 2),
                       ((dmax + 1,), 2)):
        with pytest.raises(OutOfRange):
            ci_prim_hodge(CIData(degrees, m))
        with pytest.raises(OutOfRange):
            euler_characteristic(CIData(degrees, m))
        code, out = _hodge_ci(degrees, m)
        assert code == 2 and "at most %d" % top in out


def test_slowest_accepted_complete_intersection_answers_in_time():
    # every degree multiplies two integer polynomials in z whose
    # coefficients grow with the degree, so twenty degrees of 100 at the
    # largest dimension are the dearest input the bound accepts: about
    # 0.4 s here, against 0.3 s for the twenty distinct degrees 81..100
    top, dmax = MAX_CI_SIZE, MAX_HYPERSURFACE_SIZE
    degrees = (dmax,) * top
    start = time.perf_counter()
    code, out = _hodge_ci(degrees, top)
    # the budget leaves room for a loaded machine
    assert time.perf_counter() - start < 30.0
    assert code == 0
    doc = json.loads(out)
    prim = HodgeVector(top, tuple(doc["prim"]))
    assert doc["euler"] == full_diamond_euler(CIData(degrees, top), prim)


def test_codimension_two_intersections():
    assert ci_prim_hodge(CIData((2, 2), 1)).values == (1, 1)
    assert ci_prim_hodge(CIData((3, 3), 3)).values == (1, 73, 73, 1)
    assert chi_y_coefficients(CIData((3, 3), 3)) == [0, 72, -72, 0]


def test_linear_sections_look_like_projective_space():
    # degree-1 "hypersurface" is a hyperplane: no primitive cohomology
    for m in range(1, 6):
        assert ci_prim_hodge(CIData((1,), m)).values == (0,) * (m + 1)


def test_euler_characteristics():
    assert euler_characteristic(CIData((3,), 6)) == 93
    assert euler_characteristic(CIData((5,), 3)) == -200
    assert euler_characteristic(CIData((1,), 2)) == 3
    assert euler_characteristic(CIData((3, 3), 3)) == -144
    assert euler_characteristic(CIData((3,), 7)) == -162  # 8 - 170
    assert euler_characteristic(CIData((2, 2), 1)) == 0


def test_full_diamond_matches_chern_euler():
    cases = [CIData((3,), 7), CIData((3,), 6), CIData((5,), 3),
             CIData((3, 3), 3), CIData((2, 2), 1), CIData((4,), 4),
             CIData((3, 2, 2), 5)]
    for ci in cases:
        assert full_diamond_euler(ci) == euler_characteristic(ci), ci


def test_hodge_vector_validation():
    with pytest.raises(ValueError):
        HodgeVector(2, (1, 2))
    with pytest.raises(ValueError):
        HodgeVector(2, (1, 2, 3))
    with pytest.raises(ValueError):
        HodgeVector(1, (-1, -1))
    hv = HodgeVector(3, (1, 73, 73, 1))
    assert hv.primitive_betti == 148
    assert hv.to_json() == [1, 73, 73, 1]


def test_ci_data_validation():
    with pytest.raises(ValueError):
        CIData((), 3)
    with pytest.raises(ValueError):
        CIData((0, 2), 3)
    with pytest.raises(ValueError):
        CIData((2,), -1)
    ci = CIData((3, 5, 5), 5)
    assert ci.ambient == 8


def test_hodge_records_are_frozen():
    hv = HodgeVector(1, (1, 1))
    ci = CIData((3,), 2)
    for record, name in ((hv, "m"), (hv, "values"), (ci, "degrees"),
                         (ci, "m"), (ci, "unknown")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert (hv.values, ci.degrees, ci.m) == ((1, 1), (3,), 2)
    assert hv == HodgeVector(1, (1, 1)) != HodgeVector(1, (2, 2))
    assert hash(hv) == hash((1, (1, 1)))
    assert ci == CIData([3], 2) != CIData((3,), 3)
    assert hash(ci) == hash(((3,), 2))


def test_ci_data_degrees_must_be_integers():
    # a float or a string degree raises instead of being truncated
    for degrees in ((3.7,), (3, 2.0), ("3",)):
        with pytest.raises(TypeError):
            CIData(degrees, 2)
    assert CIData([3, 3], 3).degrees == (3, 3)


def test_ci_data_dimension_must_be_an_integer():
    # a float or a string dimension raises at construction, not later in
    # ci_prim_hodge
    for m in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            CIData((3,), m)
    assert ci_prim_hodge(CIData((3,), 2)) == ci_prim_hodge(CIData([3], 2))


def test_vanishing_off_the_middle_degree():
    # H^7 of a 5-dimensional intersection vanishes for every e
    for e in range(2, 7):
        assert jacobian_vanishing_check(CIData((3, e, e), 5), 4) is True
    assert jacobian_vanishing_check(CIData((5,), 3), 1) is True


def test_vanishing_fails_in_the_middle_when_primitive_cohomology_lives():
    assert jacobian_vanishing_check(CIData((3,), 7), 4) is False
    assert jacobian_vanishing_check(CIData((5,), 3), 2) is False


def test_vanishing_middle_odd_quadric_is_genuinely_zero():
    # middle degree, but an odd-dimensional quadric has no primitive
    # cohomology at all, so the intermediate Jacobian still vanishes
    assert jacobian_vanishing_check(CIData((2,), 3), 2) is True


def test_vanishing_range_guard():
    with pytest.raises(ValueError):
        jacobian_vanishing_check(CIData((3,), 2), 9)


def test_symmetry_and_nonnegativity_on_a_grid():
    for degrees in [(3,), (4,), (2, 3), (3, 3), (2, 2, 2)]:
        for m in range(1, 6):
            hv = ci_prim_hodge(CIData(degrees, m))
            assert hv.values == tuple(reversed(hv.values))
            assert all(v >= 0 for v in hv.values)


# The series method as it ran before interpolation: truncated power series
# in H over the field Q(y), kept as an oracle for chi_y_coefficients.

def _qy_series_mul(a, b, order):
    out = [ZERO] * order
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _qy_series_inv(a, order):
    inv0 = ONE / a[0]
    out = [ZERO] * order
    out[0] = inv0
    for k in range(1, order):
        acc = ZERO
        for j in range(1, k + 1):
            if j < len(a) and not a[j].is_zero():
                acc = acc + a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _qy_series_pow(a, n, order):
    result = [ZERO] * order
    result[0] = ONE
    base = list(a)
    while n:
        if n & 1:
            result = _qy_series_mul(result, base, order)
        base = _qy_series_mul(base, base, order)
        n >>= 1
    return result


def _qy_phi_series(d, order, y):
    num = [ZERO] * order
    den = [ZERO] * order
    for k in range(order):
        c = Fraction((-d) ** k, math.factorial(k))
        num[k] = Scalar.from_fraction(c) * y if k > 0 else ONE + y
        den[k] = Scalar.from_fraction(Fraction((-d) ** k, math.factorial(k + 1)))
    return _qy_series_mul(num, _qy_series_inv(den, order), order)


def _chi_y_over_qy(ci):
    m = ci.m
    order = m + 1
    y = Scalar.param("y")
    cls = _qy_series_pow(_qy_phi_series(1, order, y), ci.ambient + 1, order)
    for d in ci.degrees:
        cls = _qy_series_mul(cls, _qy_series_inv(_qy_phi_series(d, order, y),
                                                 order), order)
    chi = cls[m] * (ONE / (ONE + y))
    for d in ci.degrees:
        chi = chi * Scalar.from_fraction(d)
    assert not chi.den.params, "chi_y must be a polynomial in y"
    den = chi.den.constant_value()
    out = []
    for p in range(m + 1):
        if chi.num.params == ():
            c = chi.num.constant_value() if p == 0 else Fraction(0)
        else:
            c = chi.num.terms.get((p,), Fraction(0))
        v = c / den
        assert v.denominator == 1, "chi_p must be an integer"
        out.append(int(v))
    return out


_CHI_Y_CASES = [CIData((d,), m) for d in range(1, 6) for m in range(8)]
_CHI_Y_CASES += [CIData(degrees, m)
                 for degrees in [(2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (1, 3)]
                 for m in range(6)]


def test_interpolated_chi_y_matches_series_over_qy():
    for ci in _CHI_Y_CASES:
        assert chi_y_coefficients(ci) == _chi_y_over_qy(ci), ci


# Oracle: chi_y at a number y before the generating function, through
# Hirzebruch-Riemann-Roch with phi(x) = x*(1 + y*e^{-x})/(1 - e^{-x}):
# chi_y = (prod d_i) * coeff_{H^m} [phi(H)^{N+1} / ((1+y) prod phi(d_i*H))],
# kept verbatim apart from the names.

def oracle_series_pow(a, n, order):
    result = [Fraction(1)] + [Fraction(0)] * (order - 1)
    while n:
        if n & 1:
            result = _series_mul(result, a, order)
        a = _series_mul(a, a, order)
        n >>= 1
    return result


def oracle_phi_series(d, order, y):
    """phi(d*H) = d*H*(1 + y*e^{-dH})/(1 - e^{-dH}) at the number y, as a
    unit series: (1 + y*e^{-dH}) / sum_{k>=0} (-1)^k d^k H^k / (k+1)!."""
    num = [1 + y] + [y * Fraction((-d) ** k, math.factorial(k))
                     for k in range(1, order)]
    den = [Fraction((-d) ** k, math.factorial(k + 1)) for k in range(order)]
    return _series_mul(num, _series_inv(den, order), order)


def oracle_chi_y_at(ci, y):
    """chi_y(Y) at the number y >= 0, where 1 + y = phi(0) is nonzero."""
    order = ci.m + 1
    cls = oracle_series_pow(oracle_phi_series(1, order, y), ci.ambient + 1,
                            order)
    for d, mult in Counter(ci.degrees).items():
        inv = _series_inv(oracle_phi_series(d, order, y), order)
        cls = _series_mul(cls, oracle_series_pow(inv, mult, order), order)
    return cls[ci.m] * math.prod(ci.degrees) / (1 + y)


def test_chi_y_nodes_match_the_phi_series_oracle():
    top, dmax = MAX_CI_SIZE, MAX_HYPERSURFACE_SIZE
    cases = _CHI_Y_CASES + [CIData(degrees, m)
                            for degrees in [(4, 2), (3, 3, 3)]
                            for m in range(6)]
    cases += [CIData(tuple(range(dmax - top + 1, dmax + 1)), top),
              CIData((dmax,) * top, top)]
    for ci in cases:
        for y in range(ci.m + 2):  # the interpolation nodes
            value = _chi_y_at(ci, y)
            assert type(value) is Fraction, (ci, y)
            assert value == oracle_chi_y_at(ci, y), (ci, y)


def _hirzebruch_closed_form(d, m, y):
    """z^{m+1} coefficient of [(1+zy)^d - (1-z)^d] / [(1+zy)^d + y(1-z)^d]
    * 1/((1+zy)(1-z)) at the number y: Hirzebruch's generating function for
    chi_y of degree-d hypersurfaces."""
    plus = [Fraction(math.comb(d, k)) * y ** k for k in range(d + 1)]
    minus = [Fraction(math.comb(d, k) * (-1) ** k) for k in range(d + 1)]
    num = [p - q for p, q in zip(plus, minus)]
    den = [p + y * q for p, q in zip(plus, minus)]
    for c in (y, -1):  # times (1 + zy)(1 - z)
        den = [p + c * q for p, q in zip(den + [0], [0] + den)]
    quotient = []
    for k in range(m + 2):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * quotient[k - j]
                   for j in range(1, min(k, len(den) - 1) + 1))
        quotient.append(acc / den[0])
    return quotient[m + 1]


def test_chi_y_matches_hirzebruch_closed_form():
    # nine points pin down a polynomial of degree <= 7 in y
    points = (-4, -3, -2, 2, 3, 5, 7, 11, 13)
    for d in range(1, 6):
        for m in range(1, 8):
            chi = chi_y_coefficients(CIData((d,), m))
            for y in points:
                value = sum(c * y ** p for p, c in enumerate(chi))
                assert value == _hirzebruch_closed_form(d, m, y), (d, m, y)
