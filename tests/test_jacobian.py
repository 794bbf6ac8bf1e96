"""Graded Jacobian ring: slice dimensions, normal forms, multiplication
maps, socle pairings, and rank/kernel extraction."""

import gc
import random
import time
import weakref
from fractions import Fraction

import pytest

from grifcalc.errors import DegreeMismatch, OutOfRange
from grifcalc.jacobian import (MAX_SLICE_ENTRIES, MAX_SLICE_MONOMIALS,
                               HomogeneousPolynomial, HypersurfaceRing,
                               LinearMap, TensorSum, ambient_dimension,
                               determinant, monomials_of_degree, mult_map,
                               pairing_matrix, rank_kernel,
                               reduced_monomials)
from grifcalc.linalg import determinant as rows_determinant
from grifcalc.scalar import Scalar, parse


def fermat(d, nvars):
    return HypersurfaceRing.fermat(d, nvars)


def brute_slice_dimension(ring, k):
    # independent oracle: ambient monomials modulo the row space of
    # x^e * dF/dx_i, dense fractions, plain Gaussian elimination
    if k < 0:
        return 0
    cols = {m: i for i, m in enumerate(monomials_of_degree(ring.nvars, k))}
    rows = []
    d = ring.polynomial.degree
    for i in range(ring.nvars):
        partial = ring.polynomial.partial(i)
        if partial.is_zero():
            continue
        for e in monomials_of_degree(ring.nvars, k - d + 1):
            shifted = partial.mul_monomial(e)
            row = [Fraction(0)] * len(cols)
            for exps, c in shifted.terms.items():
                row[cols[exps]] = Fraction(c)
            rows.append(row)
    rank = 0
    ncols = len(cols)
    pivots = {}
    for row in rows:
        row = list(row)
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                for j in range(ncols):
                    row[j] -= f * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [v * inv for v in row]
        pivots[lead] = row
        rank += 1
    return ncols - rank


def test_fermat_slice_dimensions():
    ring = fermat(3, 8)
    dims = [ring.quotient_basis(k).dimension for k in range(10)]
    assert dims == [1, 8, 28, 56, 70, 56, 28, 8, 1, 0]
    assert ring.socle_degree == 8
    assert ring.quotient_basis(-1).dimension == 0
    assert ring.quotient_basis(9).basis == ()


def test_reduced_monomials_filter_the_full_slice():
    # oracle: every degree-k monomial, in the same descending grlex order,
    # kept when no exponent exceeds cap
    for nvars in range(6):
        for cap in range(4):
            for k in range(-1, nvars * cap + 2):
                want = tuple(m for m in monomials_of_degree(nvars, k)
                             if all(e <= cap for e in m))
                assert reduced_monomials(nvars, k, cap) == want


def _recursive_monomials(nvars, k):
    # oracle: the enumerator as it was before it shared the filler of
    # reduced_monomials, without its suffix cache
    if k < 0:
        return ()
    if nvars == 0:
        return ((),) if k == 0 else ()
    if nvars == 1:
        return ((k,),)
    return tuple((e0,) + rest for e0 in range(k, -1, -1)
                 for rest in _recursive_monomials(nvars - 1, k - e0))


def _recursive_reduced_monomials(nvars, k, cap):
    # oracle: reduced_monomials as it was before it became a loop, one
    # recursion level per variable
    if k < 0 or k > nvars * cap:
        return ()
    if nvars == 0:
        return ((),)
    out = []
    exps = [0] * nvars

    def fill(i, left):
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


def test_reduced_monomials_match_the_recursion():
    for nvars in range(8):
        for cap in range(6):
            for k in range(-1, nvars * cap + 2):
                assert (reduced_monomials(nvars, k, cap)
                        == _recursive_reduced_monomials(nvars, k, cap)), \
                    (nvars, k, cap)


def test_slices_list_past_the_recursion_limit():
    # the recursion went one level per variable, past Python's default
    # limit of 1,000: the socle monomial of the Fermat cubic in 5,000
    # variables, and slice 1 of a Fermat and a generic cubic in 1,200
    assert reduced_monomials(5000, 5000, 1) == ((1,) * 5000,)
    assert fermat(3, 1200).quotient_basis(1).dimension == 1200
    ring = _perturbed_fermat(1200, 3, {(1, 1, 1) + (0,) * 1197: 1})
    assert not ring.fermat_flag
    assert ring.quotient_basis(1).dimension == 1200


def test_monomials_of_degree_match_the_recursion():
    for nvars in range(7):
        for k in range(-2, 8):
            assert monomials_of_degree(nvars, k) == \
                _recursive_monomials(nvars, k), (nvars, k)


def test_sevenfold_middle_dimensions():
    ring = fermat(3, 9)
    assert ring.quotient_basis(3).dimension == 84
    assert ring.quotient_basis(4).dimension == 126
    assert ring.socle_degree == 9


def test_dimension_plus_ideal_rank_is_ambient():
    ring = fermat(3, 6)
    for k in range(0, 8):
        basis = ring.quotient_basis(k)
        assert basis.dim_ambient == ambient_dimension(6, k)
        # the ideal slice is spanned by the monomials with an x_i^2
        assert basis.dim_ambient - basis.dimension == sum(
            max(m) >= 2 for m in monomials_of_degree(6, k))


def test_gorenstein_duality_small_fermat_rings():
    for nvars in range(2, 8):
        ring = fermat(3, nvars)
        s = ring.socle_degree
        for k in range(s + 1):
            assert (ring.quotient_basis(k).dimension
                    == ring.quotient_basis(s - k).dimension)


def test_general_ring_matches_dense_oracle():
    # cubic with a mixing term: not Fermat, exercises the generic path
    terms = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1}
    f = HomogeneousPolynomial.from_terms(3, terms)
    ring = HypersurfaceRing(f)
    assert not ring.fermat_flag
    for k in range(0, 5):
        assert ring.quotient_basis(k).dimension == brute_slice_dimension(ring, k)


def test_general_ring_normal_forms():
    terms = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1}
    ring = HypersurfaceRing(HomogeneousPolynomial.from_terms(3, terms))
    x0sq_x1 = HomogeneousPolynomial.monomial(3, (2, 1, 0))
    assert ring.normal_form(x0sq_x1).is_zero()
    x0cube = HomogeneousPolynomial.monomial(3, (3, 0, 0))
    x2cube = HomogeneousPolynomial.monomial(3, (0, 0, 3))
    assert ring.normal_form(x0cube) == ring.normal_form(x2cube)
    mixed = HomogeneousPolynomial.monomial(3, (1, 1, 1))
    got = ring.normal_form(mixed)
    assert got == x2cube.scale(Scalar.from_fraction(-3))


def test_fermat_vs_generic_path_agreement():
    # same Fermat form with the generic elimination branch forced: slice
    # dimensions agree and normal forms agree up to the ideal
    rng = random.Random(7)
    for d, nvars in [(3, 3), (3, 4), (4, 3), (5, 2), (3, 5)]:
        fast = fermat(d, nvars)
        slow = HypersurfaceRing(fast.polynomial)
        slow.fermat_flag = False
        slow._slices = {}
        for k in range(0, min(nvars * (d - 2) + 2, 8)):
            if ambient_dimension(nvars, k) > 500:
                continue
            assert (fast.quotient_basis(k).dimension
                    == slow.quotient_basis(k).dimension), (d, nvars, k)
            for _ in range(4):
                probe = HomogeneousPolynomial.monomial(
                    nvars, rng.choice(monomials_of_degree(nvars, k)))
                gap = fast.normal_form(probe) - slow.normal_form(probe)
                assert slow.normal_form(gap).is_zero()


def _normal_form_over_every_pivot(ring, p):
    # oracle: the walk over all pivot rows in column order, as normal_form
    # had it before it visited only the pivot columns present
    gb = ring.quotient_basis(p.degree)
    vec = {gb.column_index[e]: c for e, c in p.terms.items()}
    for pc, prow in sorted(gb.pivots.items()):
        coef = vec.pop(pc, None)
        if not coef:
            continue
        for c, v in prow.items():
            if c == pc:
                continue
            s = vec.get(c, 0) - coef * v
            if not s:
                vec.pop(c, None)
            else:
                vec[c] = s
    terms = {gb.columns[ci]: coeff for ci, coeff in vec.items() if coeff}
    return HomogeneousPolynomial(p.nvars, p.degree, terms)


def test_normal_form_matches_the_walk_over_every_pivot():
    rng = random.Random(1957)
    for d, nvars, extra in [(3, 5, 4), (4, 4, 3)]:
        ring = HypersurfaceRing(HomogeneousPolynomial.from_terms(
            nvars, _perturbed_terms(rng, d, nvars, extra)))
        assert not ring.fermat_flag
        for k in range(ring.socle_degree + 2):
            monos = monomials_of_degree(nvars, k)
            for _ in range(3):
                terms = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for m in rng.sample(monos, min(6, len(monos)))}
                p = HomogeneousPolynomial.from_terms(nvars, terms, degree=k)
                got = ring.normal_form(p)
                want = _normal_form_over_every_pivot(ring, p)
                assert list(got.terms.items()) == list(want.terms.items())


def test_normal_form_is_multiplicative_modulo_ideal():
    rng = random.Random(3)
    ring = fermat(3, 5)
    for _ in range(25):
        e1 = rng.choice(monomials_of_degree(5, 2))
        e2 = rng.choice(monomials_of_degree(5, 2))
        p = HomogeneousPolynomial.monomial(5, e1)
        q = HomogeneousPolynomial.monomial(5, e2)
        direct = ring.normal_form(p * q)
        staged = ring.normal_form(ring.normal_form(p) * q)
        assert direct == staged


def test_normal_form_idempotent_and_degree_checked():
    ring = fermat(3, 4)
    p = HomogeneousPolynomial.monomial(4, (2, 1, 1, 0))
    nf = ring.normal_form(p)
    assert ring.normal_form(nf) == nf
    square = HomogeneousPolynomial.monomial(4, (2, 0, 0, 0))
    assert ring.normal_form(square).is_zero()
    with pytest.raises(DegreeMismatch):
        ring.normal_form(HomogeneousPolynomial.monomial(3, (1, 1, 1)))


def test_mult_map_rank_onto_socle():
    # multiplication by x0*x1*x2 from R^3 to the one-dimensional R^6
    ring = fermat(3, 6)
    p = HomogeneousPolynomial.monomial(6, (1, 1, 1, 0, 0, 0))
    m = mult_map(ring, p, 3)
    assert m.nrows == 1 and m.ncols == 20
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert len(kernel) == 19


def test_mult_map_entries_are_socle_coefficients():
    ring = fermat(3, 6)
    p = HomogeneousPolynomial.monomial(6, (1, 1, 1, 0, 0, 0))
    m = mult_map(ring, p, 3)
    dom = ring.quotient_basis(3)
    complement = dom.index[(0, 0, 0, 1, 1, 1)]
    assert m.entry(0, complement) == Scalar.from_fraction(1)
    square = dom.index[(1, 1, 1, 0, 0, 0)]
    assert not m.entry(0, square)


def test_pairing_matrix_structure_fermat_sixfold():
    # R^1 x R^5 socle pairing against a sum of disjoint quadrics
    ring = fermat(3, 8)
    unit = HomogeneousPolynomial.monomial(8, (0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DegreeMismatch):
        pairing_matrix(ring, unit, 1, 5)
    quad = HomogeneousPolynomial.from_terms(8, {
        (1, 1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1})
    m = pairing_matrix(ring, quad, 1, 5)
    assert m.nrows == 8 and m.ncols == 56


def test_pairing_matrix_perfect_on_sixfold_middle():
    # e * x_i x_j pairing R^1 x R^1 -> socle is degenerate for a single
    # monomial but perfect for the full quadric at generic coefficients
    ring = fermat(3, 4)
    quad = HomogeneousPolynomial.from_terms(4, {
        (1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    m = pairing_matrix(ring, quad, 1, 1)
    assert m.nrows == 4 and m.ncols == 4
    rank, _ = rank_kernel(m)
    assert rank == 4


def test_pairing_smallest_ring():
    # two variables: R^1 has basis (x0, x1) and the socle is x0*x1,
    # so the unit pairing is the antidiagonal permutation
    ring = fermat(3, 2)
    assert ring.socle_degree == 2
    p = HomogeneousPolynomial.monomial(2, (0, 0))
    m = pairing_matrix(ring, p, 1, 1)
    assert m.nrows == 2 and m.ncols == 2
    one = Scalar.from_fraction(1)
    assert m.entries == {(0, 1): one, (1, 0): one}


def test_rank_kernel_symbolic():
    dom = HypersurfaceRing.fermat(3, 4).quotient_basis(1).basis
    a = Scalar.param("a")
    entries = {(0, 0): a, (0, 1): Scalar.from_fraction(1),
               (1, 0): Scalar.from_fraction(1), (1, 1): a}
    m = LinearMap(dom, dom, entries)
    rank, kernel = rank_kernel(m)
    assert rank == 2
    assert len(kernel) == 2  # 4 columns, rank 2


def test_determinant_of_mult_map():
    ring = fermat(3, 4)
    a = Scalar.param("a")
    quad = HomogeneousPolynomial.from_terms(4, {
        (1, 1, 0, 0): a, (0, 0, 1, 1): 1})
    m = pairing_matrix(ring, quad, 1, 1)
    det = determinant(m)
    assert det == (a * a) or det == parse("a^2")


def test_polynomial_json_round_trip():
    a = Scalar.param("a")
    p = HomogeneousPolynomial.from_terms(3, {(2, 1, 0): a, (0, 2, 1): -2})
    data = p.to_json()
    assert data["nvars"] == 3 and data["degree"] == 3
    assert all(set(t) == {"exps", "coeff"} for t in data["terms"])
    back = HomogeneousPolynomial.from_json(data)
    assert back == p


def test_linear_map_to_json_sorts_entries_and_renders_coefficients():
    dom = HypersurfaceRing.fermat(3, 4).quotient_basis(1).basis
    m = LinearMap(dom, dom, {(3, 2): Scalar.from_fraction(-5),
                             (0, 1): Scalar.param("t"),
                             (2, 0): Fraction(3, 2), (1, 3): 0})
    assert m.to_json() == {"rows": 4, "cols": 4,
                           "entries": [[0, 1, "t"], [2, 0, "3/2"],
                                       [3, 2, "-5"]]}


def test_json_coefficients_are_fractions_unless_a_parameter_occurs():
    p = HomogeneousPolynomial.from_json(
        {"nvars": 2, "degree": 1,
         "terms": [{"exps": [1, 0], "coeff": "3/2"},
                   {"exps": [0, 1], "coeff": "a/2"}]})
    rational, parametric = p.coefficient((1, 0)), p.coefficient((0, 1))
    assert type(rational) is Fraction and rational == Fraction(3, 2)
    assert isinstance(parametric, Scalar)
    assert parametric == parse("a/2")


def test_exponents_must_be_integers():
    # a float or a string exponent raises instead of being truncated
    for exps in ((1.5, 0.5), (1, 0.0), ("1", 0)):
        with pytest.raises(TypeError):
            HomogeneousPolynomial.from_terms(2, {exps: 1})
        with pytest.raises(TypeError):
            HomogeneousPolynomial.monomial(2, exps)
    assert HomogeneousPolynomial.monomial(2, [1, 0]) == \
        HomogeneousPolynomial.from_terms(2, {(1, 0): 1})


def test_coefficients_must_be_exact():
    # a float would enter as its binary value and a bool as 0 or 1
    p = HomogeneousPolynomial.monomial(2, (1, 0))
    for value in (0.1, 0.5, 2.0, True, False):
        for entry in (
                lambda x: HomogeneousPolynomial.from_terms(2, {(1, 0): x},
                                                           degree=1),
                lambda x: p * x, lambda x: x * p, p.scale,
                lambda x: TensorSum([(x, p, p)]),
                lambda x: TensorSum.simple(p, p).scale(x)):
            with pytest.raises(TypeError):
                entry(value)
    a = Scalar.param("a")
    assert p * "1/2" == "1/2" * p == p.scale(Fraction(1, 2))
    assert (p * a).terms == (a * p).terms == {(1, 0): a}
    for value, want in (("3/4", Fraction(3, 4)), (2, Fraction(2)),
                        (Fraction(1, 3), Fraction(1, 3)), (a, a)):
        p = HomogeneousPolynomial.from_terms(2, {(1, 0): value}, degree=1)
        assert p.terms == {(1, 0): want}


def test_tensor_sum_bookkeeping():
    p = HomogeneousPolynomial.monomial(6, (1, 1, 1, 0, 0, 0))
    q = HomogeneousPolynomial.monomial(6, (0, 0, 0, 1, 1, 1))
    w = TensorSum.simple(p, q) + TensorSum.simple(q, p)
    assert not w.is_zero()
    assert len(w.monomial_expansion()) == 2
    z = TensorSum.simple(p, q, coeff=0)
    assert z.is_zero()
    with pytest.raises(DegreeMismatch):
        TensorSum([(Scalar.from_fraction(1), p,
                    HomogeneousPolynomial.monomial(5, (1, 1, 1, 0, 0)))])


def _perturbed_terms(rng, d, nvars, extra):
    # Fermat form plus a few seeded rational terms: not Fermat, so every
    # slice goes through the generic elimination
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = d
        terms[tuple(e)] = Fraction(1)
    monos = [m for m in monomials_of_degree(nvars, d) if max(m) < d]
    for m in rng.sample(monos, extra):
        terms[m] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                            rng.randint(1, 5))
    return terms


def test_perturbed_form_fraction_matches_scalar_wrapped_oracle():
    rng = random.Random(11)
    for d, nvars, extra in [(3, 4, 3), (4, 3, 2), (3, 3, 2)]:
        terms = _perturbed_terms(rng, d, nvars, extra)
        plain = HypersurfaceRing(HomogeneousPolynomial.from_terms(nvars, terms))
        wrapped = HypersurfaceRing(HomogeneousPolynomial.from_terms(
            nvars, {e: Scalar.from_fraction(c) for e, c in terms.items()}))
        assert not plain.fermat_flag and not wrapped.fermat_flag
        assert all(isinstance(c, Fraction)
                   for c in plain.polynomial.terms.values())
        socle = plain.socle_degree
        for k in range(socle + 2):
            gp, gw = plain.quotient_basis(k), wrapped.quotient_basis(k)
            assert gp.basis == gw.basis and gp.pivots == gw.pivots
            assert all(isinstance(v, Fraction)
                       for prow in (gp.pivots or {}).values()
                       for v in prow.values())
            for m in rng.sample(monomials_of_degree(nvars, k),
                                min(4, ambient_dimension(nvars, k))):
                probe = HomogeneousPolynomial.monomial(
                    nvars, m, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                nf = plain.normal_form(probe)
                assert nf == wrapped.normal_form(probe)
                assert all(isinstance(c, Fraction) for c in nf.terms.values())
        unit = HomogeneousPolynomial.monomial(nvars, (0,) * nvars)
        j = socle // 2
        mp = pairing_matrix(plain, unit, j, socle - j)
        mw = pairing_matrix(wrapped, unit, j, socle - j)
        assert mp == mw
        det = determinant(mp)
        assert det == determinant(mw) and not det.is_zero()


def test_two_parameter_pairing_determinant_answers_in_time():
    # entries are rational functions in a and b with many denominators;
    # one gcd of the product of all the pivots took over a minute
    a, b = Scalar.param("a"), Scalar.param("b")
    terms = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
             (0, 0, 0, 3): 1, (1, 1, 1, 0): a, (0, 2, 0, 1): b,
             (1, 0, 1, 1): Fraction(3, 7)}
    ring = HypersurfaceRing(HomogeneousPolynomial.from_terms(4, terms))
    unit = HomogeneousPolynomial.monomial(4, (0, 0, 0, 0))
    start = time.perf_counter()
    m = pairing_matrix(ring, unit, 2, 2)
    det = determinant(m)
    # about 0.7 s here; the budget leaves room for a loaded machine
    assert time.perf_counter() - start < 10.0
    for point in ({"a": 2, "b": 3}, {"a": Fraction(-1, 2), "b": 5}):
        rows = [{c: v.specialize(point) if isinstance(v, Scalar) else v
                 for c, v in row.items()} for row in m.rows_as_dicts()]
        assert det.specialize(point) == rows_determinant(rows, m.nrows)


def test_determinant_of_rational_map_is_a_scalar():
    ring = fermat(3, 4)
    quad = HomogeneousPolynomial.from_terms(4, {
        (1, 1, 0, 0): Fraction(3, 2), (0, 0, 1, 1): 1})
    m = pairing_matrix(ring, quad, 1, 1)
    assert all(isinstance(v, Fraction) for v in m.entries.values())
    det = determinant(m)
    assert isinstance(det, Scalar) and det == Fraction(9, 4)
    singular = determinant(LinearMap(m.domain, m.codomain, {}))
    assert isinstance(singular, Scalar) and singular.is_zero()


def test_polynomials_with_equal_mixed_coefficients_hash_alike():
    p = HomogeneousPolynomial.from_terms(2, {(1, 1): Fraction(3, 2),
                                             (2, 0): 1})
    q = HomogeneousPolynomial.from_terms(2, {(1, 1): parse("3/2"),
                                             (2, 0): Scalar.from_fraction(1)})
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


def _refused_in_time(build):
    start = time.perf_counter()
    with pytest.raises(OutOfRange) as info:
        build()
    assert time.perf_counter() - start < 1.0
    return str(info.value)


def _perturbed_fermat(nvars, degree, extra):
    terms = {tuple(degree if j == i else 0 for j in range(nvars)): 1
             for i in range(nvars)}
    terms.update(extra)
    return HypersurfaceRing(HomogeneousPolynomial.from_terms(nvars, terms))


def test_fermat_slices_are_bounded_before_they_are_enumerated():
    # the quartic slice 46 in 25 variables is the largest accepted one,
    # built here on a ring of its own so that no earlier test cached it
    ring = HypersurfaceRing(fermat(4, 25).polynomial)
    assert ring.fermat_flag
    assert ring.quotient_basis(46).dimension == 19_850 <= MAX_SLICE_MONOMIALS
    message = _refused_in_time(lambda: ring.quotient_basis(45))
    assert message == ("slice 45 of HypersurfaceRing(d=4, nvars=25, fermat) "
                       "has 110630 monomials, more than 20000")
    assert 45 not in ring._slices
    # C(32, 16), about 6.0e8 monomials, used to run on past 10 s
    message = _refused_in_time(lambda: fermat(3, 32).quotient_basis(16))
    assert "has 601080390 monomials" in message


def test_generic_slices_are_bounded_before_they_are_enumerated():
    # below degree d - 1 a slice has columns and no rows: 17,550 columns
    # in 5 variables at k = 23 are accepted, 20,475 at k = 24 are not
    ring = _perturbed_fermat(5, 30, {(1, 29, 0, 0, 0): 2})
    assert not ring.fermat_flag
    assert ring.quotient_basis(23).dimension == 17_550
    assert ambient_dimension(5, 24) > MAX_SLICE_MONOMIALS
    message = _refused_in_time(lambda: ring.quotient_basis(24))
    assert message.endswith("has 20475 monomials, more than 20000")
    # the rows of a cubic in 4 variables with 12 partial terms hold 12 *
    # C(14, 3) = 4,368 entries at k = 13, and 12 * C(15, 3) = 5,460 at 14
    ring = _perturbed_fermat(4, 3, {(1, 1, 1, 0): Fraction(3, 2),
                                    (0, 2, 0, 1): Fraction(-2, 5),
                                    (1, 0, 1, 1): Fraction(7, 3)})
    assert 12 * 364 <= MAX_SLICE_ENTRIES < 12 * 455
    assert ring.quotient_basis(13).dimension == 0
    message = _refused_in_time(lambda: ring.quotient_basis(14))
    assert message == ("slice 14 of HypersurfaceRing(d=3, nvars=4, general) "
                       "has 5460 ideal row entries, more than 5000")
    assert sorted(ring._slices) == [13]


def test_pairings_are_bounded_before_any_normal_form(monkeypatch):
    ring = fermat(3, 10)
    quartic = HomogeneousPolynomial.monomial(10, (1, 1, 1, 1) + (0,) * 6)
    cubic = HomogeneousPolynomial.monomial(10, (1, 1, 1) + (0,) * 7)
    # 120 x 120 products are accepted, 120 x 210 are past the bound
    assert 120 * 120 <= MAX_SLICE_MONOMIALS < 120 * 210
    pairing = pairing_matrix(ring, quartic, 3, 3)
    assert (pairing.nrows, pairing.ncols) == (120, 120)
    calls = []
    normal_form = ring.normal_form
    monkeypatch.setattr(ring, "normal_form",
                        lambda p: calls.append(p) or normal_form(p))
    message = _refused_in_time(lambda: pairing_matrix(ring, cubic, 3, 4))
    assert calls == []
    assert message == ("the pairing of slices 3 and 4 of HypersurfaceRing("
                       "d=3, nvars=10, fermat) has 25200 monomial products, "
                       "more than 20000")


def test_a_huge_fermat_slice_is_refused_before_anything_is_counted():
    # the slice count is a closed form: slice d - 2 of the Fermat form of
    # degree 10^8 in 2 variables has 10^8 - 1 monomials
    message = _refused_in_time(
        lambda: fermat(10 ** 8, 2).quotient_basis(10 ** 8 - 2))
    assert message.endswith("has 99999999 monomials, more than 20000")


def test_a_fermat_ring_is_freed_with_its_caller():
    # fermat builds a new ring on each call: no process-wide memo keeps a
    # ring or its slices alive once its caller drops it
    ring = fermat(3, 17)
    assert ring.quotient_basis(7).dimension == 19_448
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None
    assert fermat(3, 17) is not fermat(3, 17)
