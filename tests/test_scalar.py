import math
import random
import sys
import time
from fractions import Fraction

import pytest

from grifcalc.errors import (
    DivisionByZero,
    OutOfRange,
    ParseError,
    PoleAtSpecialization,
    UnboundParameter,
    ZeroDenominator,
)
from grifcalc.scalar import (
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    MAX_PARSE_EXPONENT,
    MAX_PARSE_TERMS,
    ParamPolynomial,
    Scalar,
    _grlex_key,
    _positive_lead,
    _prune,
    _unify,
    exact,
    parse,
    poly_gcd,
    poly_gcd_z,
    polynomial_to_string,
    scalar_to_string,
)


def sym(name):
    return Scalar.param(name)


def rat(n, d=1):
    return Scalar.from_fraction(Fraction(n, d))


def test_normalize_constant_content():
    h = ParamPolynomial.symbol("h")
    s = Scalar(h * 2 + ParamPolynomial.constant(2), ParamPolynomial.constant(4))
    assert scalar_to_string(s) == "(h+1)/2"
    assert s == (sym("h") + 1) / 2


def test_normalize_cancels_common_factor():
    a = ParamPolynomial.symbol("a")
    b = ParamPolynomial.symbol("b")
    s = Scalar(a * a - b * b, a + b)
    assert s == sym("a") - sym("b")
    assert scalar_to_string(s) == "a-b"


def test_normalize_already_canonical():
    v = sym("a") * sym("b") / (sym("a") + sym("b") * sym("h"))
    assert v.num == (ParamPolynomial.symbol("a") * ParamPolynomial.symbol("b"))
    assert v.den == (ParamPolynomial.symbol("a")
                     + ParamPolynomial.symbol("b") * ParamPolynomial.symbol("h"))


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        Scalar(ParamPolynomial.constant(1), ParamPolynomial.constant(0))


def test_zero_is_zero_over_one():
    z = rat(0)
    assert z.num.is_zero()
    assert z.den == ParamPolynomial.constant(1)
    assert scalar_to_string(z) == "0"


def test_denominator_sign_normalized():
    s = parse("(a-b)/(b-a)")
    assert s == rat(-1)
    s2 = parse("1/(-h)")
    assert scalar_to_string(s2) == "-1/h"


def test_add_telescoping():
    x = sym("x")
    s = x / (x + 1) + rat(1) / (x + 1)
    assert s == rat(1)


def test_mul_cancels():
    a, C = sym("a"), sym("C")
    assert (rat(1) / C) * (a * C) == a


def test_div_renders_canonical_quotient():
    a, b, h = sym("a"), sym("b"), sym("h")
    v = (a * b) / (a + b * h)
    assert v.specialize({"a": 1, "b": 1, "h": 2}) == Fraction(1, 3)
    assert parse(scalar_to_string(v)) == v


def test_specialize_and_poles():
    a, b, h = sym("a"), sym("b"), sym("h")
    v = (a * b) / (a + b * h)
    assert v.specialize({"a": 2, "b": 3, "h": 0, "zz": 7}) == Fraction(3)
    with pytest.raises(PoleAtSpecialization):
        v.specialize({"a": 1, "b": 1, "h": -1})
    with pytest.raises(UnboundParameter):
        v.specialize({"a": 1, "b": 1})


def test_division_by_zero_scalar():
    with pytest.raises(DivisionByZero):
        sym("a") / rat(0)
    with pytest.raises(DivisionByZero):
        rat(0) ** (-1)


def test_pow_negative_inverts():
    a = sym("a")
    assert (a / (a + 1)) ** (-2) == ((a + 1) / a) ** 2


def test_powers_and_constants_take_integers_only():
    # operator.index: a float or a Fraction exponent, constant or factor
    # raises instead of being truncated
    a, b = sym("a"), ParamPolynomial.symbol("b")
    for n in (2.5, Fraction(5, 2), 1.9, 2.0):
        with pytest.raises(TypeError):
            a ** n
        with pytest.raises(TypeError):
            b ** n
    for value in (Fraction(1, 2), 0.5, Fraction(2), 2.0):
        with pytest.raises(TypeError):
            ParamPolynomial.constant(value)
        with pytest.raises(TypeError):
            b * value
    assert a ** 2 == a * a and b ** 2 == b * b
    assert ParamPolynomial.constant(3) * b == b * 3 == b + b + b


def test_from_fraction_takes_exact_values_only():
    # a float would enter as its binary value and a bool as 0 or 1
    a = sym("a")
    for value in (0.1, 0.5, True, False):
        for entry in (Scalar.from_fraction, Scalar, ParamPolynomial.constant,
                      scalar_to_string, exact, lambda x: Scalar(2, x),
                      lambda x: a.specialize({"a": x})):
            with pytest.raises(TypeError):
                entry(value)
    for value in ("3/4", 3, Fraction(3, 4)):
        assert Scalar.from_fraction(value).constant_value() == Fraction(value)
        assert exact(value) == Fraction(value)
    assert Scalar.from_fraction(a) is exact(a) is a
    assert a.specialize({"a": "1/3"}) == Fraction(1, 3)
    assert scalar_to_string(Fraction(-6, 4)) == "-3/2"
    assert scalar_to_string(3) == "3"
    # nor do they enter through arithmetic, and comparing does not raise
    one = Scalar.from_fraction(1)
    for value in (0.5, True, "1/2"):
        with pytest.raises(TypeError):
            a + value
        with pytest.raises(TypeError):
            value * a
    assert one != True and {True: 0}.get(one) is None  # noqa: E712


def test_parse_rejects_garbage():
    for bad in ["", "a +", "(a", "a^b", "1 $ 2", ")a(", "a^"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_precedence():
    assert parse("1+2*3") == rat(7)
    assert parse("2*a^2") == rat(2) * sym("a") ** 2
    assert parse("-a^2") == -(sym("a") ** 2)
    assert parse("6/4") == rat(3, 2)
    assert parse("a/b/c") == sym("a") / (sym("b") * sym("c"))


def test_parse_computes_the_largest_accepted_powers():
    # one power at each bound: the exponent literal, the total degree, the
    # term count of a numerator and of a denominator, and the coefficient
    # bits (255 has 8 bits); a power of a homogeneous base has terms of
    # one degree only, so its term count is that of (a+b)^100
    assert math.comb(43 + 2, 2) <= MAX_PARSE_TERMS < math.comb(44 + 2, 2)
    assert 255 ** 512 < 2 ** MAX_PARSE_BITS
    start = time.perf_counter()
    assert parse("1^%d" % MAX_PARSE_EXPONENT) == rat(1)
    assert len(parse("(a+b)^%d" % MAX_PARSE_DEGREE).num.terms) == 101
    assert parse("((a+b)^10)^10") == parse("(a+b)^100")
    assert len(parse("(a+b+c)^43").num.terms) == 990
    assert len(parse("(1/(a+b+c))^43").den.terms) == 990
    assert parse("255^512") == rat(255 ** 512)
    # 0.3 s here; the budget leaves room for a loaded machine
    assert time.perf_counter() - start < 5.0


def test_parse_refuses_powers_just_past_the_bounds():
    for text in ("1^%d" % (MAX_PARSE_EXPONENT + 1),
                 "(a+b)^%d" % (MAX_PARSE_DEGREE + 1), "(a+b+c)^44",
                 "(1/(a+b+c))^44", "255^513",
                 "(a+b)^3000", "((a+b)^40)^40", "2^200000000"):
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="power above the bound"):
            parse(text)
        assert time.perf_counter() - start < 1.0, text


def test_parse_computes_the_largest_accepted_products():
    # one product or quotient at each bound, estimated before it is taken:
    # degrees add (a numerator and a denominator of degree 100), term
    # counts multiply up to the monomial count (990 terms of degree 43 in
    # three parameters), and coefficient bits add (255^512 < 2^4096)
    start = time.perf_counter()
    assert parse("(a+b)^50*(a+b)^50") == parse("(a+b)^100")
    assert parse("1/(a+b)^50/(a+b)^50") == parse("(1/(a+b))^100")
    assert len(parse("(a+b+c)^21*(a+b+c)^22").num.terms) == 990
    assert len(parse("(a+b+c)^21/(1/(a+b+c)^22)").num.terms) == 990
    assert parse("255^256*255^256") == rat(255 ** 512)
    assert parse("*".join(["(a+b)"] * MAX_PARSE_DEGREE)) == \
        parse("(a+b)^%d" % MAX_PARSE_DEGREE)
    # 0.3 s here; the budget leaves room for a loaded machine
    assert time.perf_counter() - start < 5.0


def test_parse_refuses_products_just_past_the_bounds():
    for text, what in (("(a+b)^50*(a+b)^51", "product"),
                       ("1/(a+b)^50/(a+b)^51", "quotient"),
                       ("(a+b+c)^22*(a+b+c)^22", "product"),
                       ("(a+b+c)^22/(1/(a+b+c)^22)", "quotient"),
                       ("255^256*255^257", "product"),
                       ("*".join(["(a+b)"] * (MAX_PARSE_DEGREE + 1)), "product"),
                       ("*".join(["(a+b)^100"] * 30), "product")):
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="%s above the bound" % what):
            parse(text)
        assert time.perf_counter() - start < 1.0, text


def _reciprocal_sum(n):
    return "+".join("1/(a+%d*b+c)^5" % i for i in range(1, n + 1))


def test_parse_computes_the_largest_accepted_sums():
    # a sum x + y is estimated as x.num*y.den + y.num*x.den over
    # x.den*y.den; eight terms 1/(a+i*b+c)^5 form a denominator of degree
    # 40 in three parameters, within the 990 monomials of degree 43
    start = time.perf_counter()
    got = parse(_reciprocal_sum(8))
    # about 0.5 s with Python 3.11; the budget leaves room for a loaded
    # machine
    assert time.perf_counter() - start < 5.0
    terms = [sym("a") + i * sym("b") + sym("c") for i in range(1, 9)]
    assert got == sum((rat(1) / t ** 5 for t in terms), rat(0))
    # equal denominators stay one denominator, and polynomials have none
    assert parse("1/(a+b)^60+1/(a+b)^60") == parse("2/(a+b)^60")
    assert parse("1/(a+b)^60-1/(a+b)^60") == rat(0)
    assert parse("(a+b+c)^43+(a+b+c)^43") == parse("2*(a+b+c)^43")
    # over an equal denominator each numerator is checked alone, not its
    # product with the other denominator (degree 101 here)
    assert parse("(a+b)^60/(c+d)^41+1/(c+d)^41") \
        == parse("((a+b)^60+1)/(c+d)^41")
    assert parse("(a+b)^60/(c+d)^41-1/(c+d)^41") \
        == parse("((a+b)^60-1)/(c+d)^41")


def test_parse_refuses_sums_just_past_the_bounds():
    # the ninth term would form a denominator of degree 45 in three
    # parameters, which has 1,081 monomials
    for text, what in ((_reciprocal_sum(9), "sum"),
                       (_reciprocal_sum(8) + "-1/(a+9*b+c)^5", "difference"),
                       ("1/(a+b)^50+1/(a+2*b)^51", "sum"),
                       ("(a+b)^60+1/(a+2*b)^41", "sum"),
                       ("1/(a+2*b)^41-(a+b)^60", "difference"),
                       ("255^256+1/255^257", "sum")):
        with pytest.raises(OutOfRange, match="%s above the bound" % what):
            parse(text)


def test_parse_refuses_an_integer_literal_past_the_conversion_limit():
    # Python's int() refuses a literal this long; parse reports it as a
    # parse error naming the literal's length
    with pytest.raises(ParseError, match="5000 digits"):
        parse("1" * 5000)
    with pytest.raises(ParseError, match="5000 digits at position 2"):
        parse("a*" + "7" * 5000)


def test_parse_bounds_an_integer_literal_by_the_coefficient_bits():
    # 1,233 digits stay below 2^MAX_PARSE_BITS, and 1,234 nines do not
    assert (10 ** 1233 - 1).bit_length() <= MAX_PARSE_BITS
    assert (10 ** 1234 - 1).bit_length() > MAX_PARSE_BITS
    assert parse("9" * 1233) == 10 ** 1233 - 1
    with pytest.raises(ParseError, match="1234 digits at position 0"):
        parse("9" * 1234)
    with pytest.raises(ParseError, match="1234 digits at position 3"):
        parse("1+(" + "1" * 1234 + ")")


def test_parse_skips_whitespace_around_every_token():
    assert parse("1 ") == parse(" 1") == parse("\t1\n") == 1
    assert parse(" a * b  ") == parse("a*b")
    with pytest.raises(ParseError, match="bad character at position 1"):
        parse("1 . ")


def test_parse_refuses_nesting_past_the_recursion_limit():
    depth = sys.getrecursionlimit()
    for text in ("(" * depth + "1" + ")" * depth, "-" * depth + "1"):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)
    assert parse("(" * 50 + "-" * 50 + "1" + ")" * 50) == 1


def test_exact_reads_text_with_parse():
    # one grammar for every number typed as text: a Fraction unless a
    # parameter occurs, and what parse refuses exact refuses
    for text, value in (("3/4", Fraction(3, 4)), ("-1/2", Fraction(-1, 2)),
                        ("2^3", Fraction(8)), (" 1/2 ", Fraction(1, 2)),
                        ("(1+2)/3", Fraction(1))):
        assert type(exact(text)) is Fraction and exact(text) == value
    assert exact("a") == Scalar.param("a")
    assert exact("a/(a+b)") == parse("a/(a+b)")
    assert Scalar.from_fraction("a") == Scalar.param("a")
    for text in ("0.5", "1e5", "1_0", "+1", "1/0", "9" * 1234, ""):
        with pytest.raises(ParseError):
            exact(text)


def test_poly_gcd_basic():
    a = ParamPolynomial.symbol("a")
    b = ParamPolynomial.symbol("b")
    g = poly_gcd((a + b) * (a - b), (a + b) * (a + b))
    assert g == a + b
    assert poly_gcd(a * 6, a * 4) == a * 2
    assert poly_gcd(ParamPolynomial.constant(0), ParamPolynomial.constant(0)).is_zero()


# The gcd as it was before the constant-argument fast path and int
# coefficients: every coefficient is a Fraction, only two constant
# arguments return early, and the result is primitive.  Times the gcd of
# the integer contents it is the oracle for poly_gcd.

_ORACLE_ZERO = ParamPolynomial((), {})
_ORACLE_ONE = ParamPolynomial((), {(): Fraction(1)})


def _oracle_is_one(p):
    return not p.params and p.terms == {(): Fraction(1)}


def _oracle_content_primitive(p):
    g = 0
    l = 1
    for c in p.terms.values():
        g = math.gcd(g, abs(c.numerator))
        l = math.lcm(l, c.denominator)
    c = Fraction(g, l)
    prim = ParamPolynomial(p.params, {e: v / c for e, v in p.terms.items()})
    return c, prim


def _oracle_exact_div(p, q):
    if p.is_zero():
        return _ORACLE_ZERO
    params, tp, tq = _unify(p, q)
    eq = max(tq, key=_grlex_key)
    cq = tq[eq]
    rem = dict(tp)
    quot = {}
    while rem:
        er = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(er, eq))
        if any(v < 0 for v in diff):
            raise ArithmeticError("inexact polynomial division")
        c = rem[er] / cq
        quot[diff] = quot.get(diff, Fraction(0)) + c
        for e2, c2 in tq.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(e, Fraction(0)) - c * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return ParamPolynomial(*_prune(params, quot))


def _oracle_main_split(p, main):
    if main not in p.params:
        return {0: p}
    i = p.params.index(main)
    rest = p.params[:i] + p.params[i + 1:]
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
    return {d: ParamPolynomial(*_prune(rest, t)) for d, t in buckets.items()}


def _oracle_main_join(coeffs, main):
    x = ParamPolynomial.symbol(main)
    acc = _ORACLE_ZERO
    for d in sorted(coeffs):
        acc = acc + coeffs[d] * x ** d
    return acc


def _oracle_coeffs_gcd(coeffs):
    g = _ORACLE_ZERO
    for d in sorted(coeffs):
        g = oracle_poly_gcd(g, coeffs[d])
        if _oracle_is_one(g):
            break
    return g


def _oracle_main_primitive(coeffs):
    g = _oracle_coeffs_gcd(coeffs)
    if _oracle_is_one(g):
        return coeffs
    return {d: _oracle_exact_div(c, g) for d, c in coeffs.items()}


def _oracle_prem(A, B):
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and max(R) >= db:
        dr = max(R)
        lr = R[dr]
        new = {d: c * lb for d, c in R.items()}
        for d, c in B.items():
            nd = d + dr - db
            s = new.get(nd, _ORACLE_ZERO) - lr * c
            if s.is_zero():
                new.pop(nd, None)
            else:
                new[nd] = s
        R = new
    return R


def oracle_poly_gcd(p, q):
    if p.is_zero() and q.is_zero():
        return _ORACLE_ZERO
    if p.is_zero():
        return _positive_lead(_oracle_content_primitive(q)[1])
    if q.is_zero():
        return _positive_lead(_oracle_content_primitive(p)[1])
    _, p = _oracle_content_primitive(p)
    _, q = _oracle_content_primitive(q)
    params = tuple(sorted(set(p.params) | set(q.params)))
    if not params:
        return _ORACLE_ONE
    main = params[0]
    A = _oracle_main_split(p, main)
    B = _oracle_main_split(q, main)
    cg = oracle_poly_gcd(_oracle_coeffs_gcd(A), _oracle_coeffs_gcd(B))
    A = _oracle_main_primitive(A)
    B = _oracle_main_primitive(B)
    if max(A) < max(B):
        A, B = B, A
    while B:
        R = _oracle_prem(A, B)
        A = B
        B = _oracle_main_primitive(R) if R else R
    res = _oracle_main_join(A, main) * cg
    return _positive_lead(_oracle_content_primitive(res)[1])


def _random_poly(rng, names, terms, degree):
    p = ParamPolynomial.constant(0)
    for _ in range(terms):
        t = ParamPolynomial.constant(rng.randint(-6, 6)
                                     * rng.choice([1, 1, 2, 3]))
        for name in names:
            t = t * ParamPolynomial.symbol(name) ** rng.randint(0, degree)
        p = p + t
    return p


def _gcd_argument(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return ParamPolynomial.constant(0)
    if kind == 1:
        return ParamPolynomial.constant(rng.randint(-9, 9)
                                        * rng.randint(1, 5))
    names = rng.sample(["a", "b", "h"], rng.randint(1, 3))
    return _random_poly(rng, names, rng.randint(1, 3), 2)


def _check_against_the_oracle(p, q):
    """poly_gcd(p, q) is the oracle's primitive gcd times the gcd of the
    integer contents, and it divides p and q exactly."""
    got = poly_gcd(p, q)
    want = oracle_poly_gcd(p, q) * math.gcd(*p.terms.values(),
                                            *q.terms.values())
    assert got == want and got.params == want.params, (p, q)
    assert polynomial_to_string(got) == polynomial_to_string(want)
    assert all(type(c) is int for c in got.terms.values()), got
    if got:
        assert (p // got) * got == p and (q // got) * got == q, (p, q)


def test_poly_gcd_matches_the_oracle_randomized():
    rng = random.Random(20261018)
    shared = 0
    for case in range(400):
        p, q = _gcd_argument(rng), _gcd_argument(rng)
        if case % 2:
            c = _gcd_argument(rng)
            p, q = p * c, q * c
            shared += not c.is_constant()
        _check_against_the_oracle(p, q)
    assert shared > 100


def test_poly_gcd_matches_the_oracle_on_monomials_and_long_sequences():
    # a monomial argument takes the least exponents, and a univariate
    # pseudo-remainder sequence divides out its integer content
    rng = random.Random(1968)
    start = time.perf_counter()
    for case in range(200):
        names = rng.sample(["a", "b", "h"], rng.randint(1, 3))
        c = _random_poly(rng, names, rng.randint(1, 2), 2)
        if case % 2:
            p = _random_poly(rng, names, 1, 3)
            q = _random_poly(rng, rng.sample(["a", "b", "h"], 2), 3, 2)
        else:
            # degree 4 to 8 in one parameter, a long sequence of remainders
            p = _random_poly(rng, ["a"], 5, rng.randint(2, 4))
            q = _random_poly(rng, ["a"], 5, rng.randint(2, 4))
        p, q = p * c, q * c
        _check_against_the_oracle(p, q)
    assert time.perf_counter() - start < 10.0


def test_poly_gcd_z_keeps_the_integer_content_and_divides_exactly():
    a, b = ParamPolynomial.symbol("a"), ParamPolynomial.symbol("b")
    p = (a + b) * (a - b) * 6
    q = (a + b) * (a + b) * -4
    g = poly_gcd_z(p, q)
    assert g == (a + b) * 2
    assert p // g == (a - b) * 3 and q // g == (a + b) * -2
    assert poly_gcd_z(p) == poly_gcd_z(-p) == p
    assert poly_gcd_z(a * 3, a * b * 6, ParamPolynomial.constant(0)) == a * 3
    assert poly_gcd_z(a * 2, ParamPolynomial.constant(5)) == \
        ParamPolynomial.constant(1)
    assert poly_gcd_z().is_zero()
    assert p // ParamPolynomial.constant(1) is p
    with pytest.raises(ArithmeticError):
        p // (a + b * 2)


def _random_scalar(rng, depth=0):
    names = ["a", "b", "h"]
    kind = rng.randrange(6)
    if kind == 0 or depth > 2:
        return Scalar.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    if kind == 1:
        return Scalar.param(rng.choice(names))
    x = _random_scalar(rng, depth + 1)
    y = _random_scalar(rng, depth + 1)
    if kind == 2:
        return x + y
    if kind == 3:
        return x - y
    if kind == 4:
        return x * y
    if y.is_zero():
        return x
    return x / y


def test_field_axioms_randomized():
    rng = random.Random(20260819)
    one = rat(1)
    zero = rat(0)
    for _ in range(400):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        if not x.is_zero():
            assert x * (one / x) == one


def test_canonical_form_ignores_common_factors():
    rng = random.Random(7)
    names = ["a", "b"]
    for _ in range(200):
        def rnd_poly():
            p = ParamPolynomial.constant(0)
            for _k in range(rng.randint(1, 3)):
                t = ParamPolynomial.constant(rng.randint(-3, 3))
                for nm in names:
                    t = t * ParamPolynomial.symbol(nm) ** rng.randint(0, 2)
                p = p + t
            return p
        x, y, c = rnd_poly(), rnd_poly(), rnd_poly()
        if y.is_zero() or c.is_zero():
            continue
        assert Scalar(x * c, y * c) == Scalar(x, y)


def test_specialize_commutes_with_arithmetic():
    rng = random.Random(99)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        pt = {"a": Fraction(rng.randint(1, 9)), "b": Fraction(rng.randint(1, 9)),
              "h": Fraction(rng.randint(1, 9))}
        for op in ("add", "mul"):
            s = x + y if op == "add" else x * y
            try:
                lhs = s.specialize(pt)
                rhs = (x.specialize(pt) + y.specialize(pt) if op == "add"
                       else x.specialize(pt) * y.specialize(pt))
            except PoleAtSpecialization:
                continue
            assert lhs == rhs


def test_render_parse_round_trip_randomized():
    rng = random.Random(4242)
    for _ in range(300):
        x = _random_scalar(rng)
        assert parse(scalar_to_string(x)) == x


def test_params_sorted_and_pruned():
    v = sym("h") + sym("A") + sym("b")
    assert v.num.params == ("A", "b", "h")
    w = v - sym("h")
    assert w.num.params == ("A", "b")


def test_parameter_free_scalar_hashes_like_its_fraction():
    for text, value in [("3/2", Fraction(3, 2)), ("1", Fraction(1)),
                        ("0", Fraction(0)), ("-7/3", Fraction(-7, 3)),
                        ("4", 4)]:
        s = parse(text)
        assert s == value and value == s
        assert hash(s) == hash(value)
    assert len({parse("1"), Fraction(1), 1}) == 1
    assert {parse("a/a"): "x"}[Fraction(1)] == "x"
    a = sym("a")
    assert hash(a + 1) == hash(parse("1+a"))
    assert parse("a/2") != Fraction(1, 2)


def test_constant_arithmetic_matches_fractions_randomized():
    # constants take the same Henrici path as every other Scalar; the
    # Fraction result is the oracle for its canonical form
    rng = random.Random(2113)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-6, 4)]
    values += [Fraction(rng.randint(-60, 60), rng.randint(1, 60))
               for _ in range(40)]
    ops = [(lambda x, y: x + y), (lambda x, y: x - y),
           (lambda x, y: x * y), (lambda x, y: x / y)]
    for x in values:
        for y in values:
            for k, op in enumerate(ops):
                if k == 3 and not y:
                    continue
                got = op(Scalar.from_fraction(x), Scalar.from_fraction(y))
                want = Scalar.from_fraction(op(x, y))
                assert (got.num, got.den) == (want.num, want.den), (x, y, k)
                assert hash(got) == hash(want) == hash(op(x, y))
                assert all(type(c) is int for c in got.num.terms.values())


def test_scalar_to_string_renders_rationals_like_scalars():
    cases = [(Fraction(-3, 2), "-3/2"), (Fraction(5), "5"), (Fraction(0), "0"),
             (Fraction(2, 7), "2/7"), (Fraction(-4), "-4"), (0, "0"),
             (7, "7"), (-12, "-12")]
    for value, text in cases:
        assert scalar_to_string(value) == text
        assert scalar_to_string(Scalar.from_fraction(value)) == text
