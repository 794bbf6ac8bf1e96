"""Exact scalars: rationals and rational functions in named parameters.

A Scalar is a quotient num/den of polynomials in Z[params], the integer
polynomials in finitely many commuting parameters (symbols like "a", "h",
"A").  Scalars are kept in a canonical form so that equality is plain
structural equality:

  * num and den have integer coefficients, stored as Python ints,
  * gcd(num, den) = 1 in Z[params], so their integer contents are coprime,
  * the grlex-leading coefficient of den is positive,
  * zero is 0/1.

The parameter list of each polynomial is sorted by name and pruned to the
parameters that actually occur.  Term order is graded lexicographic on the
sorted parameter list; rendering lists terms in descending order.

Z[params] is the one polynomial ring: a ParamPolynomial has int
coefficients only, and its exact division leaves no remainder or raises.
Arithmetic keeps the canonical form without normalizing from scratch: a
product cross-cancels as in Henrici (1956) and Knuth, TAOCP vol. 2,
4.5.1, so only gcd(n1, d2) and gcd(n2, d1) are taken; a sum takes
g = gcd(d1, d2) and then only gcd(t, g) of its numerator t; an inverse or
a power only moves signs.  This cancellation is exact in any UFD, and
Z[params] is one by Gauss's lemma.  poly_gcd is the gcd in Z[params],
integer content included: the integer gcd of the coefficients when either
argument is a nonzero constant, and the least exponents times it when
either is a monomial.

Plain rationals are fractions.Fraction.  A Scalar with no parameters
takes the same Henrici arithmetic, compares and hashes equal to the
equal Fraction, and mixes with Fraction and int operands.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import (
    DivisionByZero,
    OutOfRange,
    ParseError,
    PoleAtSpecialization,
    UnboundParameter,
    ZeroDenominator,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _grlex_key(exps):
    return (sum(exps), exps)


def _prune(params, terms):
    # drop zero coefficients, then drop parameters used by no term
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return (), {}
    used = [i for i in range(len(params)) if any(e[i] for e in terms)]
    if len(used) == len(params):
        return tuple(params), dict(terms)
    kept = tuple(params[i] for i in used)
    out = {}
    for e, c in terms.items():
        out[tuple(e[i] for i in used)] = c
    return kept, out


class ParamPolynomial:
    """Sparse polynomial in Z[params] over a sorted tuple of named
    parameters.

    terms maps exponent tuples (aligned with params) to nonzero ints.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        self.params = params
        self.terms = terms

    @classmethod
    def constant(cls, value):
        if type(value) is not int:  # a bool or a Fraction is no int constant
            raise TypeError("expected an int constant, got %r" % (value,))
        return cls((), {(): value} if value else {})

    @classmethod
    def symbol(cls, name):
        if not _NAME_RE.match(name):
            raise ValueError("bad parameter name: %r" % (name,))
        return cls((name,), {(1,): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.params

    def constant_value(self):
        if self.params:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((), 0))

    def leading_term(self):
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def __neg__(self):
        return ParamPolynomial(self.params, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        params, ta, tb = _unify(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ParamPolynomial(*_prune(params, out))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = ParamPolynomial.constant(other)
        elif not isinstance(other, ParamPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ParamPolynomial((), {})
        if not self.params:
            self, other = other, self
        if not other.params:
            # a nonzero constant factor scales the coefficients and keeps
            # every term and parameter
            k = other.terms[()]
            if k == 1:
                return self
            return ParamPolynomial(self.params,
                                   {e: c * k for e, c in self.terms.items()})
        params, ta, tb = _unify(self, other)
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        # degrees add in a product of nonzero polynomials, so it keeps
        # every parameter of both factors and there is nothing to prune
        return ParamPolynomial(params, out)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        # the exact quotient: ArithmeticError when other does not divide self
        return self if _is_one(other) else _exact_div(self, other)

    def __pow__(self, n):
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ParamPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, assignment):
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise UnboundParameter("unbound parameters: %s" % ", ".join(missing))
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for name, k in zip(self.params, e):
                if k:
                    # exact refuses a float or a bool, Fraction a Scalar
                    v *= Fraction(exact(assignment[name])) ** k
            total += v
        return total

    def __str__(self):
        return polynomial_to_string(self)

    def __repr__(self):
        return "ParamPolynomial(%s)" % polynomial_to_string(self)


def _unify(a, b):
    if a.params == b.params:
        return a.params, a.terms, b.terms
    params = tuple(sorted(set(a.params) | set(b.params)))
    return params, _embed(a, params), _embed(b, params)


def _embed(p, params):
    pos = {name: i for i, name in enumerate(params)}
    idx = [pos[name] for name in p.params]
    n = len(params)
    out = {}
    for e, c in p.terms.items():
        ne = [0] * n
        for i, v in zip(idx, e):
            ne[i] = v
        out[tuple(ne)] = c
    return out


_ZERO_POLY = ParamPolynomial((), {})
_ONE_POLY = ParamPolynomial((), {(): 1})


def _is_one(p):
    return not p.params and p.terms == {(): 1}


def _lead_sign(p):
    _, c = p.leading_term()
    return 1 if c > 0 else -1


def _positive_lead(p):
    if p.is_zero():
        return p
    return p if _lead_sign(p) > 0 else -p


def _exact_div(p, q):
    """Exact division p / q in Z[params] (raises ArithmeticError if q does
    not divide p)."""
    if not q.params:
        # a constant divides each coefficient on its own
        k = q.terms.get((), 0)
        quot = {}
        for e, c in p.terms.items():
            quot[e], r = divmod(c, k)
            if r:
                raise ArithmeticError("inexact polynomial division")
        return ParamPolynomial(p.params, quot)
    params, tp, tq = _unify(p, q)
    eq = max(tq, key=_grlex_key)
    cq = tq[eq]
    rem = dict(tp)
    quot = {}
    while rem:
        er = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(er, eq))
        c, r = divmod(rem[er], cq)
        if r or any(v < 0 for v in diff):
            raise ArithmeticError("inexact polynomial division")
        # the leading remainder term falls at every step, so each diff
        # occurs once
        quot[diff] = c
        for e2, c2 in tq.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(e, 0) - c * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return ParamPolynomial(*_prune(params, quot))


def _main_split(p, main):
    """View p as univariate in main: dict degree -> coefficient polynomial."""
    if main not in p.params:
        return {0: p}
    i = p.params.index(main)
    rest = p.params[:i] + p.params[i + 1:]
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
    return {d: ParamPolynomial(*_prune(rest, t)) for d, t in buckets.items()}


def _main_join(coeffs, main):
    x = ParamPolynomial.symbol(main)
    acc = _ZERO_POLY
    for d in sorted(coeffs):
        acc = acc + coeffs[d] * x ** d
    return acc


def _coeffs_gcd(coeffs):
    g = _ZERO_POLY
    for d in sorted(coeffs):
        g = poly_gcd(g, coeffs[d])
        if _is_one(g):
            break
    return g


def _main_primitive(coeffs, content):
    # content is _coeffs_gcd(coeffs), integer content included; without
    # dividing by it univariate remainders grow exponentially
    return {d: c // content for d, c in coeffs.items()}


def _prem(A, B):
    """Pseudo-remainder of A by B, both univariate-in-main coefficient dicts."""
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and max(R) >= db:
        dr = max(R)
        lr = R[dr]
        new = {d: c * lb for d, c in R.items()}
        for d, c in B.items():
            nd = d + dr - db
            s = new.get(nd, _ZERO_POLY) - lr * c
            if s.is_zero():
                new.pop(nd, None)
            else:
                new[nd] = s
        R = new
    return R


def poly_gcd(p, q):
    """Gcd of p and q in Z[params], integer content included.

    Returns it with a positive grlex-leading coefficient (0 only for
    gcd(0, 0)).  Over the primitive parts in the first parameter it runs
    the primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1).
    """
    if p.is_zero():
        return _positive_lead(q)
    if q.is_zero():
        return _positive_lead(p)
    if not p.params or not q.params:
        # a constant's divisors are constants: the integer content
        return ParamPolynomial.constant(
            math.gcd(*p.terms.values(), *q.terms.values()))
    if len(p.terms) == 1 or len(q.terms) == 1:
        # a monomial's divisors are monomials: take the least exponents
        params, tp, tq = _unify(p, q)
        low = tuple(map(min, *tp, *tq))
        content = math.gcd(*tp.values(), *tq.values())
        return ParamPolynomial(*_prune(params, {low: content}))
    params = tuple(sorted(set(p.params) | set(q.params)))
    main = params[0]
    A = _main_split(p, main)
    B = _main_split(q, main)
    cA, cB = _coeffs_gcd(A), _coeffs_gcd(B)
    cg = poly_gcd(cA, cB)
    A = _main_primitive(A, cA)
    B = _main_primitive(B, cB)
    if max(A) < max(B):
        A, B = B, A
    while B:
        R = _prem(A, B)
        A = B
        B = _main_primitive(R, _coeffs_gcd(R)) if R else R
    # A is primitive, so cg carries all of the content
    return _positive_lead(_main_join(A, main) * cg)


def poly_gcd_z(*polys):
    """Gcd in Z[params] of any number of polynomials: poly_gcd folded over
    them, with a positive grlex-leading coefficient (0 when every argument
    is 0)."""
    g = _ZERO_POLY
    for p in polys:
        if g.is_zero():
            g = _positive_lead(p)
        elif p and not _is_one(g):
            g = poly_gcd(g, p)
    return g


def _normalize_pair(num, den):
    if den.is_zero():
        raise ZeroDenominator("denominator is the zero polynomial")
    # divide by the gcd in Z[params], signed so that den leads positive
    g = poly_gcd(num, den)
    if _lead_sign(den) < 0:
        g = -g
    return num // g, den // g


def _coerce_poly(x):
    return x if isinstance(x, ParamPolynomial) else ParamPolynomial.constant(x)


class Scalar:
    """Canonical quotient of integer-coefficient parameter polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = _ONE_POLY if den is None else _coerce_poly(den)
        self.num, self.den = _normalize_pair(num, den)

    @classmethod
    def _raw(cls, num, den):
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def from_fraction(cls, value):
        """exact(value) as a Scalar: a Scalar as it is, and a rational such
        as an int, a Fraction or the string "3/4" as a constant."""
        value = exact(value)
        if isinstance(value, Scalar):
            return value
        return cls._raw(
            ParamPolynomial.constant(value.numerator),
            ParamPolynomial.constant(value.denominator),
        )

    @classmethod
    def param(cls, name):
        return cls._raw(ParamPolynomial.symbol(name), _ONE_POLY)

    @property
    def params(self):
        return tuple(sorted(set(self.num.params) | set(self.den.params)))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if self.params:
            raise UnboundParameter(
                "scalar has free parameters: %s" % ", ".join(self.params)
            )
        return self.num.constant_value() / self.den.constant_value()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal values hash alike: a parameter-free Scalar hashes like the
        # Fraction it equals
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    def __neg__(self):
        return Scalar._raw(-self.num, self.den)

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        # Henrici: with g = gcd(d1, d2), n1/d1 + n2/d2 = t / (d1/g * d2) for
        # t = n1*(d2/g) + n2*(d1/g), and only gcd(t, g) can cancel; a zero
        # t has d1 = d2 = g and gcd(0, g) = g, so it ends as 0/1
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = poly_gcd(d1, d2)
        if _is_one(g):
            return Scalar._raw(n1 * d2 + n2 * d1, d1 * d2)
        d1 = d1 // g
        t = n1 * (d2 // g) + n2 * d1
        g = poly_gcd(t, g)
        return Scalar._raw(t // g, d1 * (d2 // g))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        # Henrici: n1/d1 and n2/d2 are reduced, so only gcd(n1, d2) and
        # gcd(n2, d1) can cancel from the product
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = poly_gcd(n1, d2)
        n1, d2 = n1 // g, d2 // g
        g = poly_gcd(n2, d1)
        n2, d1 = n2 // g, d1 // g
        return Scalar._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero scalar")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        n = operator.index(n)
        base = self
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero scalar raised to a negative power")
            base, n = self.inverse(), -n
        # powers of coprime num and den stay coprime, and den keeps a
        # positive leading coefficient
        return Scalar._raw(base.num ** n, base.den ** n)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of the zero scalar")
        # den/num is reduced already; only its sign may need moving
        if _lead_sign(self.num) < 0:
            return Scalar._raw(-self.den, -self.num)
        return Scalar._raw(self.den, self.num)

    def specialize(self, assignment):
        """Evaluate at a parameter assignment (symbol -> rational, as exact
        takes it).

        The assignment must cover every parameter; extra keys are ignored.
        Raises PoleAtSpecialization when the denominator vanishes.
        """
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise UnboundParameter("unbound parameters: %s" % ", ".join(missing))
        d = self.den.evaluate(assignment)
        if not d:
            raise PoleAtSpecialization(
                "denominator %s vanishes at %s" % (self.den, dict(assignment))
            )
        return self.num.evaluate(assignment) / d

    def __str__(self):
        return scalar_to_string(self)

    def __repr__(self):
        return "Scalar(%s)" % scalar_to_string(self)


def exact(x):
    """x as an exact coefficient: a Scalar as it is, and an int, a Fraction,
    a string such as "3/4" or another rational as a Fraction.  A float or a
    bool is not taken as an exact value: TypeError."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError("expected an exact value, got %r" % (x,))
    return Fraction(x)


def _coerce_scalar(x):
    # an operand of exact type int or Fraction; any other, such as a bool or
    # a float, makes arithmetic raise TypeError and compares unequal
    if isinstance(x, Scalar):
        return x
    if type(x) in (int, Fraction):
        return Scalar.from_fraction(x)
    if isinstance(x, ParamPolynomial):
        return Scalar(x)
    return NotImplemented


ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)


def power_product(names, exps):
    """The monomial with these exponents on these names, as "a*b^2"; the
    empty string when every exponent is 0."""
    return "*".join(name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, exps) if e)


def signed_sum(chunks):
    """Join (sign, body) pairs, each sign "+" or "-", into one sum such as
    "a-b+c"; a leading "+" is dropped.  chunks must not be empty."""
    text = "".join(sign + body for sign, body in chunks)
    return text[1:] if text.startswith("+") else text


def polynomial_to_string(p):
    if p.is_zero():
        return "0"
    chunks = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[e]
        mono = power_product(p.params, e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        chunks.append(("-" if c < 0 else "+", body))
    return signed_sum(chunks)


_SAFE_DEN_RE = re.compile(r"(\d+|[A-Za-z_][A-Za-z0-9_]*(\^\d+)?)\Z")


def scalar_to_string(s):
    """Render a Scalar or what exact takes; equal values render alike."""
    if not isinstance(s, Scalar):
        return str(exact(s))
    num = polynomial_to_string(s.num)
    if _is_one(s.den):
        return num
    if len(s.num.terms) > 1:
        num = "(%s)" % num
    den = polynomial_to_string(s.den)
    if not _SAFE_DEN_RE.match(den):
        den = "(%s)" % den
    return "%s/%s" % (num, den)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("bad character at position %d in %r" % (pos, text))
        if m.group(1) is not None:
            try:
                tokens.append(("int", int(m.group(1))))
            except ValueError:  # past Python's int string conversion limit
                raise ParseError("integer literal of %d digits at position %d "
                                 "is too long" % (len(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


# The largest power, product, quotient or sum parse computes, checked
# before it is taken: the exponent literal, and bounds on the total degree,
# the term count and the coefficient bits of the result's numerator and
# denominator.
MAX_PARSE_EXPONENT = 1000
MAX_PARSE_DEGREE = 100
MAX_PARSE_TERMS = 1000
MAX_PARSE_BITS = 4096


def _fits(factors):
    """Whether the product of p^n over factors (p, n) stays inside the
    parse bounds.  For p with t terms in k parameters, of total degrees
    lo..e and coefficients of absolute sum c, p^n has total degree n*e; at
    most C(n+t-1, t-1) terms, and no more than the monomials of degree
    n*lo..n*e; and coefficients of at most n bits per bit of c.  Over a
    product, degrees and bits add, term counts multiply, and the monomial
    cap counts every parameter that occurs; a zero factor counts as 1."""
    lo = e = bits = 0
    terms, params = 1, set()
    for p, n in factors:
        if p.terms:
            t, degrees = len(p.terms), [sum(exps) for exps in p.terms]
            lo, e = lo + n * min(degrees), e + n * max(degrees)
            terms *= math.comb(n + t - 1, t - 1)
            bits += n * sum(map(abs, p.terms.values())).bit_length()
            params.update(p.params)
    k = len(params)
    if k:
        terms = min(terms, math.comb(e + k, k) - math.comb(lo + k - 1, k))
    return (e <= MAX_PARSE_DEGREE and terms <= MAX_PARSE_TERMS
            and bits <= MAX_PARSE_BITS)


def _check_fits(what, text, num, den, n=1):
    if n > MAX_PARSE_EXPONENT or not (_fits(num) and _fits(den)):
        raise OutOfRange(
            "%s above the bound in %r: exponent at most %d, and a result "
            "of degree at most %d, at most %d terms and %d-bit coefficients"
            % (what, text, MAX_PARSE_EXPONENT, MAX_PARSE_DEGREE,
               MAX_PARSE_TERMS, MAX_PARSE_BITS))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r in %r" % (op, self.text))

    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError("trailing input in %r" % self.text)
        return value

    def expr(self):
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            # x + y forms x.num*y.den + y.num*x.den over x.den*y.den, or
            # x.num + y.num over the one denominator when both are equal
            if value.den == rhs.den:
                den = ((value.den, 1),)
                sides = ((value.num, 1),), ((rhs.num, 1),)
            else:
                den = ((value.den, 1), (rhs.den, 1))
                sides = (((value.num, 1), (rhs.den, 1)),
                         ((rhs.num, 1), (value.den, 1)))
            for num in sides:
                _check_fits("sum" if op == "+" else "difference", self.text,
                            num, den)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero in %r" % self.text)
            num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
            _check_fits("product" if op == "*" else "quotient", self.text,
                        ((value.num, 1), (num, 1)), ((value.den, 1), (den, 1)))
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        return self.base()

    def base(self):
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, n = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal in %r" % self.text)
            _check_fits("power", self.text, [(value.num, n)],
                        [(value.den, n)], n)
            value = value ** n
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Scalar.from_fraction(val)
        if kind == "name":
            return Scalar.param(val)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("unexpected token %r in %r" % (val, self.text))


def parse(text):
    """Parse an expression over integers and parameter symbols to a Scalar.

    Grammar: + - * / ^ with the usual precedence, parentheses, nonnegative
    integer exponents.  Round-trips with scalar_to_string().  A power,
    product, quotient, sum or difference that could pass a MAX_PARSE_*
    bound raises OutOfRange before it is taken.
    """
    if not isinstance(text, str):
        raise ParseError("expected a string, got %r" % (text,))
    return _Parser(text).parse()
