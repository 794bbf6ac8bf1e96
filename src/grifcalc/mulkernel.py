"""Kernel of the multiplication map R^3 (x) R^3 -> R^6 for Fermat cubics.

For the Fermat cubic ring in nvars variables every R^3 basis monomial is a
square-free triple x_i x_j x_k, so the multiplication map mu sends a pair
of triples to their product, which survives only when the six indices are
distinct.  The kernel of mu is spanned by rank-one decomposable tensors of
two shapes:

  monomial_pair   m1 (x) m2 with m1, m2 sharing an index (the product has
                  a square, hence is 0),
  swap_binomial   t*(x_a + x_k) (x) u*(x_a - x_k) with t, u square-free
                  quadratics avoiding a and k (the product contains
                  x_a^2 - x_k^2, hence is 0).

mu has one row per sextet, equal to 1 on each of its splits into two
triples.  The rows have disjoint supports, so rank mu = C(nvars, 6) and
ker(mu) has a closed-form basis over index triples (see _mu_kernel).

span_equals_kernel certifies that the two families span the whole kernel,
either by a streamed rank computation (mod p by default, exact rationals
for small nvars) or by rewriting every kernel basis vector to its standard
form with an explicit certificate of rank-one moves.  Neither builds the
mu matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

from .errors import DegreeMismatch, NotInKernel, OutOfRange
from .jacobian import (
    HomogeneousPolynomial,
    HypersurfaceRing,
    TensorSum,
)
from .linalg import (
    DEFAULT_PRIME,
    FRACTION_FIELD,
    ModPField,
    RowReducer,
)

MIN_NVARS = 4
MAX_NVARS = 9
EXACT_NVARS_LIMIT = 7


def _monomial(nvars, indices, coeff=1):
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return HomogeneousPolynomial.monomial(nvars, e, coeff)


def _binomial(nvars, base, plus, minus_sign):
    """base * (x_plus[0] +/- x_plus[1]) as a two-term form."""
    i, j = plus
    e1 = [0] * nvars
    e2 = [0] * nvars
    for v in base:
        e1[v] += 1
        e2[v] += 1
    e1[i] += 1
    e2[j] += 1
    return HomogeneousPolynomial.from_terms(
        nvars, {tuple(e1): 1, tuple(e2): -1 if minus_sign else 1})


@dataclass(frozen=True)
class RankOneGenerator:
    """A decomposable kernel tensor left (x) right, with at most two terms
    on each side."""

    family_tag: str
    left: HomogeneousPolynomial
    right: HomogeneousPolynomial

    def __post_init__(self):
        if self.family_tag not in ("monomial_pair", "swap_binomial"):
            raise ValueError("unknown family %r" % (self.family_tag,))
        for side in (self.left, self.right):
            if not 1 <= len(side.terms) <= 2:
                raise ValueError("generator sides must have one or two terms")
        if self.left.nvars != self.right.nvars:
            raise DegreeMismatch("generator sides over different variable counts")

    @property
    def nvars(self):
        return self.left.nvars

    def tensor(self):
        return TensorSum.simple(self.left, self.right)

    def in_kernel(self):
        ring = HypersurfaceRing.fermat(3, self.nvars)
        return ring.normal_form(self.left * self.right).is_zero()


@dataclass(frozen=True)
class StandardTensor:
    """Split of a strictly increasing sextet into its first and last three
    indices: the canonical representative of a kernel fiber."""

    nvars: int
    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if len(idx) != 6 or any(idx[i] >= idx[i + 1] for i in range(5)):
            raise ValueError("indices must be six strictly increasing values")
        if idx[0] < 0 or idx[-1] >= self.nvars:
            raise OutOfRange("index out of range for %d variables" % self.nvars)

    @property
    def left_indices(self):
        return self.indices[:3]

    @property
    def right_indices(self):
        return self.indices[3:]

    def tensor(self):
        return TensorSum.simple(
            _monomial(self.nvars, self.left_indices),
            _monomial(self.nvars, self.right_indices))


@dataclass(frozen=True)
class Certificate:
    """List of (generator, coefficient) moves expressing the non-standard
    part of a tensor inside the rank-one span."""

    moves: tuple

    @property
    def nvars(self):
        return self.moves[0][0].nvars if self.moves else None

    def tensor_sum(self):
        summands = []
        for gen, coeff in self.moves:
            summands.append((coeff, gen.left, gen.right))
        return summands


def mu_apply(ring, w):
    """Image of a tensor sum under multiplication, as a reduced form."""
    if not (ring.fermat_flag and ring.degree == 3):
        raise DegreeMismatch("mu_apply is defined on cubic Fermat rings")
    if w.is_zero():
        return HomogeneousPolynomial.zero(ring.nvars, 6)
    if w.nvars != ring.nvars:
        raise DegreeMismatch("tensor over %d variables, ring over %d"
                             % (w.nvars, ring.nvars))
    if w.left_degree != 3 or w.right_degree != 3:
        raise DegreeMismatch("mu_apply expects degree (3, 3) tensors")
    out = HomogeneousPolynomial.zero(ring.nvars, 6)
    for c, l, r in w.summands:
        out = out + ring.normal_form(l * r).scale(c)
    return out


def check_nvars(nvars, exact=False):
    """Raise OutOfRange unless span_equals_kernel accepts nvars (and exact)."""
    if not MIN_NVARS <= nvars <= MAX_NVARS:
        raise OutOfRange("nvars must lie in [%d, %d]" % (MIN_NVARS, MAX_NVARS))
    if exact and nvars > EXACT_NVARS_LIMIT:
        raise OutOfRange("exact span ranks are limited to nvars <= %d"
                         % EXACT_NVARS_LIMIT)


def _triples(nvars):
    return list(itertools.combinations(range(nvars), 3))


def _iter_pair_indices(nvars):
    """Ordered pairs (s, t) of triple indices whose triples share a variable."""
    triples = _triples(nvars)
    sets = [frozenset(t) for t in triples]
    for s in range(len(triples)):
        for t in range(len(triples)):
            if sets[s] & sets[t]:
                yield s, t


def _iter_swap_indices(nvars):
    """Tuples (t, u, a, k): quadratic bases t, u and indices a != k
    outside t and u."""
    duos = list(itertools.combinations(range(nvars), 2))
    for t in duos:
        for u in duos:
            used = set(t) | set(u)
            free = [i for i in range(nvars) if i not in used]
            for a in free:
                for k in free:
                    if a != k:
                        yield t, u, a, k


def rank_one_generators(nvars, family=None):
    """All rank-one kernel generators for the cubic Fermat ring.

    family limits the output to "monomial_pair" or "swap_binomial";
    the default returns both, pairs first.
    """
    check_nvars(nvars)
    if family not in (None, "monomial_pair", "swap_binomial"):
        raise ValueError("unknown family %r" % (family,))
    out = []
    triples = _triples(nvars)
    if family in (None, "monomial_pair"):
        for s, t in _iter_pair_indices(nvars):
            out.append(RankOneGenerator(
                "monomial_pair",
                _monomial(nvars, triples[s]),
                _monomial(nvars, triples[t])))
    if family in (None, "swap_binomial"):
        for t, u, a, k in _iter_swap_indices(nvars):
            out.append(RankOneGenerator(
                "swap_binomial",
                _binomial(nvars, t, (a, k), minus_sign=False),
                _binomial(nvars, u, (a, k), minus_sign=True)))
    return out


def _mu_kernel(nvars):
    """Closed-form basis of ker(mu) as dicts {(left, right): coeff} over
    index triples, in column order (left triple, then right triple).

    A pair of triples sharing an index is its own kernel vector; any other
    split (l, r) of six = sorted(l + r) gives (l, r) minus the standard
    split (six[:3], six[3:]), which itself gives nothing."""
    triples = _triples(nvars)
    for left in triples:
        for right in triples:
            if set(left) & set(right):
                yield {(left, right): 1}
                continue
            six = tuple(sorted(left + right))
            if left != six[:3]:
                yield {(left, right): 1, (six[:3], six[3:]): -1}


def kernel_dimension(nvars):
    """(dim ker mu, rank mu, dim R^3); rank mu = C(nvars, 6), one pivot per
    sextet."""
    check_nvars(nvars)
    n3 = math.comb(nvars, 3)
    rank = math.comb(nvars, 6)
    return n3 * n3 - rank, rank, n3


def swap_identity_holds(nvars):
    """Exhaustively check the exchange identity

      t*x_k (x) u*x_a  -  t*x_a (x) u*x_k
        = t*(x_a+x_k) (x) u*(x_a-x_k)
          - t*x_a (x) u*x_a  +  t*x_k (x) u*x_k

    for every admissible (t, u, a, k) over nvars variables, by expanding
    both sides to monomial tensors."""
    check_nvars(nvars)
    for t, u, a, k in _iter_swap_indices(nvars):
        lhs = TensorSum([
            (1, _monomial(nvars, t + (k,)), _monomial(nvars, u + (a,))),
            (-1, _monomial(nvars, t + (a,)), _monomial(nvars, u + (k,))),
        ])
        rhs = TensorSum([
            (1, _binomial(nvars, t, (a, k), False), _binomial(nvars, u, (a, k), True)),
            (-1, _monomial(nvars, t + (a,)), _monomial(nvars, u + (a,))),
            (1, _monomial(nvars, t + (k,)), _monomial(nvars, u + (k,))),
        ])
        if lhs.monomial_expansion() != rhs.monomial_expansion():
            return False
    return True


def standardize(ring, w):
    """Rewrite a kernel tensor as (standard part, certificate).

    The standard part collects StandardTensor coefficients; the certificate
    lists rank-one moves (generator, coefficient) with

        w = sum(standard part) + sum(moves).

    Kernel membership is exactly the vanishing of the standard part.  Works
    by bubbling indices across the tensor sign with the exchange identity;
    tensors whose sides share an index are recorded directly as
    monomial_pair moves.
    """
    if not (ring.fermat_flag and ring.degree == 3):
        raise DegreeMismatch("standardize is defined on cubic Fermat rings")
    if not w.is_zero():
        if w.nvars != ring.nvars:
            raise DegreeMismatch("tensor over %d variables, ring over %d"
                                 % (w.nvars, ring.nvars))
        if w.left_degree != 3 or w.right_degree != 3:
            raise DegreeMismatch("standardize expects degree (3, 3) tensors")
    terms = {}
    for (el, er), coeff in sorted(w.monomial_expansion().items()):
        left = _support(el)
        right = _support(er)
        # a side with a square is already zero in R^3
        if left is not None and right is not None:
            terms[left, right] = coeff
    return _standardize_supports(ring.nvars, terms)


def _standardize_supports(nvars, terms):
    """standardize on {(left_triple, right_triple): coeff}, in that order."""
    std = {}
    moves = []
    for (left, right), coeff in terms.items():
        if set(left) & set(right):
            moves.append((RankOneGenerator(
                "monomial_pair",
                _monomial(nvars, left), _monomial(nvars, right)), coeff))
            continue
        left = list(left)
        right = list(right)
        while max(left) > min(right):
            k = max(left)
            a = min(right)
            t = tuple(sorted(set(left) - {k}))
            u = tuple(sorted(set(right) - {a}))
            moves.append((RankOneGenerator(
                "swap_binomial",
                _binomial(nvars, t, (a, k), False),
                _binomial(nvars, u, (a, k), True)), coeff))
            moves.append((RankOneGenerator(
                "monomial_pair",
                _monomial(nvars, t + (a,)), _monomial(nvars, u + (a,))), -coeff))
            moves.append((RankOneGenerator(
                "monomial_pair",
                _monomial(nvars, t + (k,)), _monomial(nvars, u + (k,))), coeff))
            left = sorted(t + (a,))
            right = sorted(u + (k,))
        key = StandardTensor(nvars, tuple(left) + tuple(right))
        prev = std.get(key)
        total = coeff if prev is None else prev + coeff
        if total == 0:
            std.pop(key, None)
        else:
            std[key] = total
    return std, Certificate(tuple(moves))


def _support(exps):
    """Indices of a square-free monomial, or None if it has a square."""
    out = []
    for i, e in enumerate(exps):
        if e > 1:
            return None
        if e == 1:
            out.append(i)
    return tuple(out)


def verify_certificate(cert):
    """Check every move of a certificate: known family, one or two terms
    per side, and genuine kernel membership of left * right."""
    for gen, _coeff in cert.moves:
        if gen.family_tag not in ("monomial_pair", "swap_binomial"):
            return False
        if not 1 <= len(gen.left.terms) <= 2:
            return False
        if not 1 <= len(gen.right.terms) <= 2:
            return False
        if not gen.in_kernel():
            return False
    return True


@dataclass
class SpanReport:
    """Outcome of a span-versus-kernel certification run."""

    nvars: int
    mode: str
    exact: bool
    prime: int | None
    dim_r3: int
    dim_r6: int
    mu_rank: int
    kernel_dim: int
    pair_count: int
    pair_rank: int
    swap_streamed: int
    span_rank: int
    standardized_vectors: int
    certificate_moves: int
    swap_identity_checked: bool
    verdict: bool

    def to_json(self):
        return asdict(self)


def span_equals_kernel(nvars, mode="span_rank", prime=None, exact=False):
    """Certify that the rank-one families span ker(mu) for the cubic
    Fermat ring in nvars variables.

    mode "span_rank" streams generator vectors into an incremental row
    reduction and compares the reached rank with dim ker(mu); arithmetic
    is mod p (default 2^31 - 1) unless exact=True, which is limited to
    nvars <= 7.  A mod-p rank can only undershoot the rational rank, so a
    True verdict is exact.

    mode "standardize" rewrites every closed-form kernel basis vector to
    standard form and demands an empty standard part with a verifying
    certificate; this path is exact for every supported nvars and also
    checks the exchange identity symbolically.
    """
    check_nvars(nvars, exact)
    if mode not in ("span_rank", "standardize"):
        raise ValueError("unknown mode %r" % (mode,))
    if mode == "span_rank":
        # a modulus that is not prime fails here, before any elimination
        p = None if exact else (DEFAULT_PRIME if prime is None else int(prime))
        field = FRACTION_FIELD if exact else ModPField(p)
    kernel_dim, mu_rank, n3 = kernel_dimension(nvars)
    base = dict(
        # mu is onto R^6, one basis monomial per sextet
        nvars=nvars, mode=mode, dim_r3=n3, dim_r6=mu_rank,
        mu_rank=mu_rank, kernel_dim=kernel_dim,
        standardized_vectors=0, certificate_moves=0,
        swap_identity_checked=False,
    )

    if mode == "span_rank":
        one = field.one
        minus_one = field.neg(one)
        reducer = RowReducer(field)
        pair_count = 0
        for s, t in _iter_pair_indices(nvars):
            reducer.add({s * n3 + t: one})
            pair_count += 1
        pair_rank = reducer.rank
        tindex = {t: i for i, t in enumerate(_triples(nvars))}

        def index(duo, i):
            return tindex[tuple(sorted(duo + (i,)))]

        swap_streamed = 0
        for t, u, a, k in _iter_swap_indices(nvars):
            if reducer.rank >= kernel_dim:
                break
            # t(x_a + x_k) (x) u(x_a - x_k): four distinct columns, as a != k
            ta, tk = index(t, a) * n3, index(t, k) * n3
            ua, uk = index(u, a), index(u, k)
            swap_streamed += 1
            reducer.add({ta + ua: one, ta + uk: minus_one,
                         tk + ua: one, tk + uk: minus_one})
        span_rank = reducer.rank
        return SpanReport(
            exact=bool(exact), prime=p,
            pair_count=pair_count, pair_rank=pair_rank,
            swap_streamed=swap_streamed, span_rank=span_rank,
            verdict=span_rank == kernel_dim, **base)

    # standardize mode: exact by construction
    ok = True
    moves_total = 0
    count = 0
    for vec in _mu_kernel(nvars):
        std, cert = _standardize_supports(nvars, vec)
        count += 1
        moves_total += len(cert.moves)
        if std or not verify_certificate(cert):
            ok = False
            break
    # identity patterns touch at most 6 distinct indices, so 6 variables
    # exhaust every shape up to relabeling
    identity_ok = swap_identity_holds(min(nvars, 6))
    base.update(standardized_vectors=count, certificate_moves=moves_total,
                swap_identity_checked=True)
    return SpanReport(
        exact=True, prime=None,
        pair_count=sum(1 for _ in _iter_pair_indices(nvars)),
        pair_rank=0, swap_streamed=0, span_rank=kernel_dim if ok else -1,
        verdict=ok and identity_ok, **base)


def tensor_in_kernel(ring, w):
    """Membership test; raises NotInKernel with the offending image."""
    image = mu_apply(ring, w)
    if not image.is_zero():
        raise NotInKernel("mu(w) = %s is nonzero" % (image,))
    return True
