import random
from fractions import Fraction

import pytest

from grifcalc.errors import (
    DivisionByZero,
    ParseError,
    PoleAtSpecialization,
    UnboundParameter,
    ZeroDenominator,
)
from grifcalc.scalar import (
    ParamPolynomial,
    Scalar,
    parse,
    poly_gcd,
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


def test_poly_gcd_basic():
    a = ParamPolynomial.symbol("a")
    b = ParamPolynomial.symbol("b")
    g = poly_gcd((a + b) * (a - b), (a + b) * (a + b))
    assert g == a + b
    assert poly_gcd(a * 6, a * 4) == a
    assert poly_gcd(ParamPolynomial.constant(0), ParamPolynomial.constant(0)).is_zero()


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


def test_scalar_to_string_renders_rationals_like_scalars():
    cases = [(Fraction(-3, 2), "-3/2"), (Fraction(5), "5"), (Fraction(0), "0"),
             (Fraction(2, 7), "2/7"), (Fraction(-4), "-4"), (0, "0"),
             (7, "7"), (-12, "-12")]
    for value, text in cases:
        assert scalar_to_string(value) == text
        assert scalar_to_string(Scalar.from_fraction(value)) == text
