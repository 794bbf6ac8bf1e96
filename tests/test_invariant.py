"""Socle pairing of the distinguished cubic against the symbolic quadric,
its determinant, the invariant values it produces, and independence of
value families."""

import math
import random
import time
from fractions import Fraction

import pytest

from grifcalc import invariant, jacobian, linalg, scalar
from grifcalc.errors import (DegenerateDenominator, DegreeMismatch,
                             NotInKernel, NotIsomorphism, OutOfRange)
from grifcalc.invariant import (MAX_PAIRS, delta_nu, distinguished_tensor,
                                distinguished_triple, independence_rank,
                                iso_det, iso_matrix, rho_check)
from grifcalc.jacobian import (HomogeneousPolynomial, HypersurfaceRing,
                               TensorSum, pairing_matrix)
from grifcalc.linalg import rank_and_kernel, solve
from grifcalc.mulkernel import index_monomial, tensor_in_kernel
from grifcalc.scalar import ParamPolynomial, Scalar, parse, scalar_to_string

ONE = Scalar.from_fraction(1)


def _mono(indices, coeff=1):
    exps = [0] * 8
    for i in indices:
        exps[i] += 1
    return HomogeneousPolynomial.monomial(8, tuple(exps), coeff)


def q_tensor_r(swap=False):
    q = _mono((4, 5, 6), ONE / Scalar.param("A"))
    r = _mono((3, 5, 7), ONE / Scalar.param("B"))
    if swap:
        q, r = r, q
    return TensorSum.simple(q, r)


EXPECTED_ENTRIES = {
    (0, 1): "a",
    (1, 0): "a",
    (2, 3): "C*a",
    (3, 2): "C*a",
    (2, 4): "D*b",
    (4, 2): "D*b",
    (3, 5): "B*b",
    (5, 3): "B*b",
    (4, 5): "A*a",
    (5, 4): "A*a",
    (6, 7): "b*h+a",
    (7, 6): "b*h+a",
}


def test_triple_structure():
    t = distinguished_triple()
    assert t.p.nvars == 8 and t.p.degree == 4
    assert t.e.nvars == 8 and t.e.degree == 2
    assert len(t.p.terms) == 4
    assert len(t.e.terms) == 5
    assert t.a == Scalar.param("a") and t.b == Scalar.param("b")


def test_triple_specialization():
    t = distinguished_triple(1, 0)
    # only the first summand survives: a*(A x0x1x2x3 + C x4x5x6x7)
    assert len(t.p.terms) == 2
    zero = distinguished_triple(0, 0)
    assert zero.p.is_zero()


def test_pairing_matrix_has_exactly_twelve_nonzero_entries():
    m = iso_matrix(distinguished_triple())
    rendered = {k: scalar_to_string(v) for k, v in m.entries.items()}
    assert rendered == EXPECTED_ENTRIES
    assert len(m.entries) == 12


def test_pairing_matrix_is_symmetric():
    m = iso_matrix(distinguished_triple())
    for (i, j), v in m.entries.items():
        assert m.entries[(j, i)] == v


def test_alternate_quadric_changes_one_pair_of_entries():
    m = iso_matrix(distinguished_triple(e_denominator="D"))
    assert scalar_to_string(m.entries[(6, 7)]) == "(B*b*h+D*a)/D"
    for key in ((0, 1), (2, 3), (2, 4), (3, 5), (4, 5)):
        assert scalar_to_string(m.entries[key]) == EXPECTED_ENTRIES[key]


def test_determinant_factors():
    _, det = iso_det(distinguished_triple())
    assert det == parse("a^2*(a+b*h)^2*(a^2*A*C-b^2*B*D)^2")


def test_determinant_specializations():
    _, det = iso_det(distinguished_triple(1, 0))
    assert det == parse("A^2*C^2")
    # on the locus a^2*A*C = b^2*B*D the pairing degenerates
    _, det_sym = iso_det(distinguished_triple())
    value = det_sym.specialize({"a": Fraction(1), "b": Fraction(1),
                                "A": Fraction(1), "B": Fraction(1),
                                "C": Fraction(1), "D": Fraction(1),
                                "h": Fraction(2)})
    assert value == Fraction(0)


def test_rho_check_accepts_the_distinguished_quadric():
    assert rho_check(distinguished_triple()) is True
    assert rho_check(distinguished_triple(), seed=5) is True


def test_rho_check_rejects_degenerate_quadrics():
    t = distinguished_triple()
    broken = type(t)(p=t.p, e=HomogeneousPolynomial.zero(8, 2), a=t.a, b=t.b)
    assert rho_check(broken) is False
    rank_one = type(t)(p=t.p, e=_mono((0, 1)), a=t.a, b=t.b)
    assert rho_check(rank_one) is False


def test_invariant_value():
    value = delta_nu(distinguished_triple(), q_tensor_r())
    assert value == parse("a*b/(a+b*h)")
    assert scalar_to_string(value) == "a*b/(b*h+a)"


def test_invariant_value_is_swap_symmetric():
    assert delta_nu(distinguished_triple(), q_tensor_r(swap=True)) == parse("a*b/(a+b*h)")


def test_invariant_vanishes_when_one_summand_is_off():
    value = delta_nu(distinguished_triple(), q_tensor_r())
    at_b0 = value.specialize({"a": Fraction(1), "b": Fraction(0),
                              "h": Fraction(1)})
    assert at_b0 == Fraction(0)
    # the symbolic computation specializes the same way
    t = distinguished_triple(1, 0)
    v = delta_nu(t, q_tensor_r())
    assert v.is_zero()


def test_invariant_is_bilinear_in_the_tensor():
    t = distinguished_triple()
    w = q_tensor_r()
    doubled = w.scale(Scalar.from_fraction(2))
    assert delta_nu(t, doubled) == delta_nu(t, w) * Scalar.from_fraction(2)
    summed = w + w.scale(Scalar.from_fraction(-3))
    assert delta_nu(t, summed) == delta_nu(t, w) * Scalar.from_fraction(-2)


def test_invariant_of_zero_tensor():
    assert delta_nu(distinguished_triple(), TensorSum([])).is_zero()


def test_invariant_rejects_non_kernel_tensors():
    # x0x1x2 (x) x3x4x5 multiplies to the socle monomial, not into the ideal
    w = TensorSum.simple(_mono((0, 1, 2)), _mono((3, 4, 5)))
    with pytest.raises(NotInKernel):
        delta_nu(distinguished_triple(), w)


def test_invariant_rejects_wrong_degrees():
    w = TensorSum.simple(_mono((0, 1)), _mono((3, 4, 5)))
    with pytest.raises(DegreeMismatch):
        delta_nu(distinguished_triple(), w)


def test_invariant_needs_nondegenerate_pairing():
    with pytest.raises(NotIsomorphism):
        delta_nu(distinguished_triple(0, 0), q_tensor_r())


@pytest.mark.parametrize("b", [1, Fraction(3, 2)])
def test_invariant_rejects_a_nonzero_singular_pairing(b):
    # at a = 0 the pairing matrix keeps its b entries but loses rank
    triple = distinguished_triple(0, b)
    assert iso_matrix(triple).entries
    assert iso_det(triple)[1].is_zero()
    with pytest.raises(NotIsomorphism):
        delta_nu(triple, q_tensor_r())


def test_invariant_takes_no_determinant(monkeypatch):
    def no_determinant(*args):
        raise AssertionError("delta_nu took a determinant")

    for module, name in ((invariant, "iso_det"), (invariant, "determinant"),
                         (jacobian, "determinant"), (linalg, "determinant")):
        monkeypatch.setattr(module, name, no_determinant)
    for swap in (False, True):
        value = delta_nu(distinguished_triple(), distinguished_tensor(swap))
        assert scalar_to_string(value) == "a*b/(b*h+a)"


def oracle_delta_nu(triple, w):
    """delta_nu as it was before it read both sides off pairing_matrix: the
    right-hand side built pairing by pairing, the preimage written out as a
    degree-1 form, and the socle coefficient of the triple product."""
    ring = HypersurfaceRing.fermat(3, 8)
    if w.is_zero():
        return scalar.ZERO
    if w.nvars != 8 or w.left_degree != 3 or w.right_degree != 3:
        raise DegreeMismatch("delta_nu expects degree (3, 3) tensors over "
                             "8 variables")
    tensor_in_kernel(ring, w)
    m = pairing_matrix(ring, ring.normal_form(triple.p * triple.e), 1, 1)
    rows = m.rows_as_dicts()
    n = m.ncols
    basis1 = ring.quotient_basis(1).basis
    soc = ring.socle_monomial()
    total = scalar.ZERO
    for c, q, r in w.summands:
        u = ring.normal_form(triple.p * r)
        rhs = []
        for mono in basis1:
            rhs.append(ring.normal_form(u.mul_monomial(mono)).coefficient(soc))
        try:
            y = solve(rows, n, rhs)
        except ValueError:
            raise NotIsomorphism("pairing matrix is singular for this triple")
        pre = HomogeneousPolynomial.from_terms(
            8, {basis1[j]: y[j] for j in range(n)}, degree=1)
        val = ring.normal_form(triple.p * q * pre).coefficient(soc)
        total = total + val * c
    return total


def _random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


# complements of the four monomials of P: a monomial tensor q (x) r pairs
# to a nonzero value only when q and r each lie inside one of them
_P_COMPLEMENTS = ((4, 5, 6, 7), (0, 1, 2, 3), (3, 5, 6, 7), (0, 1, 2, 4))


def _seen_by_p(triple):
    return any(set(triple) <= set(c) for c in _P_COMPLEMENTS)


def _random_move(rng):
    """A pair or swap move over 8 variables with at least one monomial
    tensor whose sides P can see."""
    while True:
        if rng.random() < 0.5:
            left = sorted(rng.sample(rng.choice(_P_COMPLEMENTS), 3))
            right = sorted(rng.sample(rng.choice(_P_COMPLEMENTS), 3))
            if set(left) & set(right):
                return index_monomial(8, left), index_monomial(8, right)
            continue
        a, k = rng.sample(range(8), 2)
        free = [i for i in range(8) if i not in (a, k)]
        t = tuple(rng.sample(free, 2))
        u = tuple(rng.sample(free, 2))
        if any(_seen_by_p(t + (x,)) and _seen_by_p(u + (y,))
               for x in (a, k) for y in (a, k)):
            return (index_monomial(8, t + (a,)) + index_monomial(8, t + (k,)),
                    index_monomial(8, u + (a,)) - index_monomial(8, u + (k,)))


def _random_kernel_tensor(rng, nmoves):
    """A sum of nmoves pair and swap moves over 8 variables, each with a
    Fraction, constant Scalar or parametric Scalar coefficient."""
    summands = []
    for _ in range(nmoves):
        q, r = _random_move(rng)
        c = _random_fraction(rng) or Fraction(1)
        kind = rng.randrange(3)
        if kind == 1:
            c = Scalar.from_fraction(c)
        elif kind == 2:
            c = Scalar.param(rng.choice("Ah")) * c
        summands.append((c, q, r))
    return TensorSum(summands)


def test_delta_nu_matches_the_oracle_on_the_distinguished_tensor():
    triple = distinguished_triple()
    for swap in (False, True):
        w = distinguished_tensor(swap)
        assert delta_nu(triple, w) == oracle_delta_nu(triple, w)


def test_delta_nu_matches_the_oracle_on_numeric_triples():
    rng = random.Random(14)
    pairs = [(1, 0), (-1, 1), (Fraction(-2, 3), Fraction(-5, 2))]
    pairs += [(_random_fraction(rng) or 1, _random_fraction(rng))
              for _ in range(6)]
    for a, b in pairs:
        triple = distinguished_triple(a, b)
        for swap in (False, True):
            w = distinguished_tensor(swap)
            value = delta_nu(triple, w)
            assert value == oracle_delta_nu(triple, w), (a, b, swap)
            assert scalar_to_string(value) == scalar_to_string(
                oracle_delta_nu(triple, w))


def test_delta_nu_matches_the_oracle_on_multi_summand_kernel_tensors():
    rng = random.Random(41)
    triples = [distinguished_triple()]
    triples += [distinguished_triple(_random_fraction(rng) or 1,
                                     _random_fraction(rng))
                for _ in range(5)]
    nonzero = 0
    for triple in triples:
        for _ in range(2):
            w = _random_kernel_tensor(rng, rng.randint(2, 5))
            value = delta_nu(triple, w)
            assert value == oracle_delta_nu(triple, w)
            assert scalar_to_string(value) == scalar_to_string(
                oracle_delta_nu(triple, w))
            nonzero += not value.is_zero()
    # the comparison means little on tensors the invariant kills
    assert nonzero >= 4


def test_delta_nu_and_the_oracle_both_need_an_isomorphism():
    for b in (1, Fraction(-3, 2)):
        triple = distinguished_triple(0, b)
        for fn in (delta_nu, oracle_delta_nu):
            with pytest.raises(NotIsomorphism):
                fn(triple, q_tensor_r())


def test_delta_nu_rejects_a_tensor_over_six_variables():
    # a kernel tensor of the 6-variable cubic ring, where no triple lives
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (0, 4, 5)))
    with pytest.raises(DegreeMismatch):
        delta_nu(distinguished_triple(), w)


def test_independence_spec_examples():
    rank, relations = independence_rank(((1, 1), (2, 1), (3, 1)))
    assert rank == 3 and relations == []
    rank, relations = independence_rank(((1, 1), (1, 1)))
    assert rank == 1
    assert len(relations) == 1
    c0, c1 = relations[0]
    assert c0 == -c1 and c0 != 0
    rank, relations = independence_rank(((2, 0), (0, 5)))
    assert rank == 0


def test_independence_long_family():
    pairs = tuple((a, 1) for a in range(1, 9))
    rank, relations = independence_rank(pairs)
    assert rank == 8 and relations == []


def test_independence_relations_annihilate_the_values():
    pairs = ((1, 1), (2, 2), (3, 1))
    rank, relations = independence_rank(pairs)
    assert rank == 2
    h = Scalar.param("h")
    values = []
    for a, b in pairs:
        aa = Scalar.from_fraction(Fraction(a))
        bb = Scalar.from_fraction(Fraction(b))
        values.append(aa * bb / (aa + bb * h))
    for rel in relations:
        acc = Scalar.from_fraction(0)
        for c, v in zip(rel, values):
            acc = acc + Scalar.from_fraction(c) * v
        assert acc.is_zero()


def test_independence_degenerate_pair_rejected():
    with pytest.raises(DegenerateDenominator):
        independence_rank(((0, 0), (1, 1)))


def test_independence_takes_exact_rational_pairs_only():
    # a float would be ranked by its binary value and a bool as 0 or 1;
    # a Scalar is no rational pair entry
    for value in (0.5, True, Scalar.from_fraction(2)):
        for pair in ((value, 1), (1, value)):
            with pytest.raises(TypeError):
                independence_rank([pair])
    assert independence_rank([("1/2", 1), (1, 2)]) == (1, [(-2, 1)])


def test_independence_proportional_pairs_collapse():
    # scaling (a, b) to (2a, 2b) scales the value by 2, a proportionality
    rank, _ = independence_rank(((1, 2), (2, 4)))
    assert rank == 1
    rank, _ = independence_rank(((1, 2), (1, 2), (3, 4)))
    assert rank == 2


def scalar_independence_rank(pairs):
    """Oracle: independence_rank as it was computed over a Scalar common
    denominator, with a polynomial gcd in every product."""
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
    rows = {}
    for i, v in enumerate(values):
        w = v * common
        assert not w.den.params and w.den.constant_value() != 0
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
    rank, kern = rank_and_kernel(row_list, len(pairs))
    return rank, [tuple(vec.get(i, Fraction(0)) for i in range(len(pairs)))
                  for vec in kern]


def polynomial_independence_rank(pairs):
    """Oracle: independence_rank as it was computed by elimination, each
    value cleared of every denominator by gcd-free products in h.  Each
    pair is scaled by the lcm k of its denominators, so a*b/(a+b*h) is
    (a*b*k)/(k*a+k*b*h) over Z[h]; the common multiplier changes by the
    product of the k, a constant."""
    h = ParamPolynomial.symbol("h")
    nonzero = {}
    for i, (a, b) in enumerate(pairs):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 and b == 0:
            raise DegenerateDenominator("pair %d is (0, 0)" % i)
        if a * b:
            k = math.lcm(a.denominator, b.denominator)
            nonzero[i] = (a * b * k, h * int(b * k)
                          + ParamPolynomial.constant(int(a * k)))
    rows = {}
    for i, (abk, _) in nonzero.items():
        cleared = ParamPolynomial.constant(1)
        for j, (_, den) in nonzero.items():
            if j != i:
                cleared = cleared * den
        for exps, coeff in cleared.terms.items():
            rows.setdefault(sum(exps), {})[i] = coeff * abk
    row_list = [rows[d] for d in sorted(rows)]
    rank, kern = rank_and_kernel(row_list, len(pairs))
    return rank, [tuple(vec.get(i, Fraction(0)) for i in range(len(pairs)))
                  for vec in kern]


def _random_family(rng):
    pairs = []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if pairs and roll < 0.2:
            pairs.append(rng.choice(pairs))  # a repeat
        elif pairs and roll < 0.35:
            a, b = rng.choice(pairs)
            k = Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 2))
            pairs.append((a * k, b * k))  # a proportional pair
        elif roll < 0.5:
            v = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            pairs.append((v, Fraction(0)) if rng.random() < 0.5
                         else (Fraction(0), v))  # a zero value
        else:
            a = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
            b = Fraction(rng.randint(-6, 6) or 2, rng.randint(1, 3))
            pairs.append((a, b))
    return tuple(pairs)


def test_independence_rank_matches_the_scalar_oracle():
    rng = random.Random(404)
    for _ in range(320):
        pairs = _random_family(rng)
        got = independence_rank(pairs)
        assert got == polynomial_independence_rank(pairs)
        assert got == scalar_independence_rank(pairs)
        for rel in got[1]:
            assert all(type(c) is Fraction for c in rel)


def test_independence_rank_builds_no_scalar(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("independence_rank left exact polynomials")

    monkeypatch.setattr(Scalar, "__init__", forbidden)
    monkeypatch.setattr(Scalar, "_raw", classmethod(forbidden))
    monkeypatch.setattr(scalar, "poly_gcd", forbidden)
    rank, relations = independence_rank(
        ((1, 1), (2, 2), (0, 3), (1, 2), (3, 1)))
    assert rank == 3
    assert relations == [(-2, 1, 0, 0, 0), (0, 0, 1, 0, 0)]


def test_independence_of_199_distinct_pairs_is_fast():
    # by elimination, 59 such pairs took about 2 s
    pairs = tuple((k, 1) for k in range(1, 200))
    start = time.perf_counter()
    rank, relations = independence_rank(pairs)
    assert time.perf_counter() - start < 1.0
    assert rank == 199 and relations == []


def test_independence_at_the_pair_bound():
    # the dense relations are the one cost that grows: about 0.02 s here
    pairs = ((1, 1),) * MAX_PAIRS
    start = time.perf_counter()
    rank, relations = independence_rank(pairs)
    assert time.perf_counter() - start < 1.0
    assert rank == 1 and len(relations) == MAX_PAIRS - 1
    assert relations[-1][0] == -1 and relations[-1][-1] == 1
    with pytest.raises(OutOfRange):
        independence_rank(pairs + ((1, 1),))
