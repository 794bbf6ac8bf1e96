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

span_equals_kernel certifies that these span the whole kernel, either by a
streamed rank computation (mod p by default, exact rationals for small
nvars) or by rewriting every kernel basis vector to its standard form with
an explicit certificate of rank-one moves.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from fractions import Fraction

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
    rank_and_kernel,
)
from .scalar import ONE, Scalar

MIN_NVARS = 4
MAX_NVARS = 9
EXACT_NVARS_LIMIT = 7

MINUS_ONE = Scalar.from_fraction(-1)


def _monomial(nvars, indices, coeff=ONE):
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
        nvars, {tuple(e1): ONE, tuple(e2): MINUS_ONE if minus_sign else ONE})


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


def _check_nvars(nvars):
    if not MIN_NVARS <= nvars <= MAX_NVARS:
        raise OutOfRange("nvars must lie in [%d, %d]" % (MIN_NVARS, MAX_NVARS))


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
    _check_nvars(nvars)
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


def _mu_rows(nvars):
    """Rows of the mu matrix: one row per R^6 sextet, column index
    s * len(triples) + t for the ordered pair of triples (s, t)."""
    triples = _triples(nvars)
    index = {t: i for i, t in enumerate(triples)}
    n3 = len(triples)
    rows = []
    for sextet in itertools.combinations(range(nvars), 6):
        row = {}
        for left in itertools.combinations(sextet, 3):
            right = tuple(sorted(set(sextet) - set(left)))
            row[index[left] * n3 + index[right]] = Fraction(1)
        rows.append(row)
    return rows, n3


def kernel_dimension(nvars):
    _check_nvars(nvars)
    triples = _triples(nvars)
    n3 = len(triples)
    rows, _ = _mu_rows(nvars)
    rank, _ = rank_and_kernel(rows, n3 * n3, FRACTION_FIELD)
    return n3 * n3 - rank, rank, n3


def swap_identity_holds(nvars):
    """Exhaustively check the exchange identity

      t*x_k (x) u*x_a  -  t*x_a (x) u*x_k
        = t*(x_a+x_k) (x) u*(x_a-x_k)
          - t*x_a (x) u*x_a  +  t*x_k (x) u*x_k

    for every admissible (t, u, a, k) over nvars variables, by expanding
    both sides to monomial tensors."""
    _check_nvars(nvars)
    for t, u, a, k in _iter_swap_indices(nvars):
        lhs = TensorSum([
            (ONE, _monomial(nvars, t + (k,)), _monomial(nvars, u + (a,))),
            (MINUS_ONE, _monomial(nvars, t + (a,)), _monomial(nvars, u + (k,))),
        ])
        rhs = TensorSum([
            (ONE, _binomial(nvars, t, (a, k), False), _binomial(nvars, u, (a, k), True)),
            (MINUS_ONE, _monomial(nvars, t + (a,)), _monomial(nvars, u + (a,))),
            (ONE, _monomial(nvars, t + (k,)), _monomial(nvars, u + (k,))),
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
    nvars = ring.nvars
    std = {}
    moves = []
    for (el, er), coeff in sorted(w.monomial_expansion().items()):
        left = _support(el)
        right = _support(er)
        if left is None or right is None:
            # a side with a square is already zero in R^3
            continue
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
        if total.is_zero():
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

    mode "standardize" rewrites every kernel basis vector to standard form
    and demands an empty standard part with a verifying certificate; this
    path is exact for every supported nvars and also checks the exchange
    identity symbolically.
    """
    _check_nvars(nvars)
    if mode not in ("span_rank", "standardize"):
        raise ValueError("unknown mode %r" % (mode,))
    if exact and nvars > EXACT_NVARS_LIMIT:
        raise OutOfRange("exact span ranks are limited to nvars <= %d"
                         % EXACT_NVARS_LIMIT)
    if mode == "span_rank":
        # a modulus that is not prime fails here, before any elimination
        p = None if exact else (DEFAULT_PRIME if prime is None else int(prime))
        field = FRACTION_FIELD if exact else ModPField(p)
    triples = _triples(nvars)
    n3 = len(triples)
    rows, _ = _mu_rows(nvars)
    mu_rank, kernel_vecs = rank_and_kernel(rows, n3 * n3, FRACTION_FIELD)
    kernel_dim = n3 * n3 - mu_rank
    dim_r6 = len(rows)
    base = dict(
        nvars=nvars, mode=mode, dim_r3=n3, dim_r6=dim_r6,
        mu_rank=mu_rank, kernel_dim=kernel_dim,
        standardized_vectors=0, certificate_moves=0,
        swap_identity_checked=False,
    )

    if mode == "span_rank":
        one = field.one
        reducer = RowReducer(field)
        pair_count = 0
        for s, t in _iter_pair_indices(nvars):
            reducer.add({s * n3 + t: one})
            pair_count += 1
        pair_rank = reducer.rank
        tindex = {t: i for i, t in enumerate(triples)}
        swap_streamed = 0
        for t, u, a, k in _iter_swap_indices(nvars):
            if reducer.rank >= kernel_dim:
                break
            vec = {}
            for i, sl in ((a, 1), (k, 1)):
                for j, sr in ((a, 1), (k, -1)):
                    lt = tindex[tuple(sorted(t + (i,)))]
                    rt = tindex[tuple(sorted(u + (j,)))]
                    col = lt * n3 + rt
                    val = sl * sr
                    cur = vec.get(col, 0) + val
                    if cur:
                        vec[col] = cur
                    else:
                        vec.pop(col, None)
            if not exact:
                vec = {c: v % p for c, v in vec.items() if v % p}
            else:
                vec = {c: Fraction(v) for c, v in vec.items()}
            swap_streamed += 1
            reducer.add(vec)
        span_rank = reducer.rank
        return SpanReport(
            exact=bool(exact), prime=p,
            pair_count=pair_count, pair_rank=pair_rank,
            swap_streamed=swap_streamed, span_rank=span_rank,
            verdict=span_rank == kernel_dim, **base)

    # standardize mode: exact by construction
    ring = HypersurfaceRing.fermat(3, nvars)
    ok = True
    moves_total = 0
    count = 0
    for vec in kernel_vecs:
        summands = []
        for col, val in vec.items():
            s, t = divmod(col, n3)
            summands.append((Scalar.from_fraction(val),
                             _monomial(nvars, triples[s]),
                             _monomial(nvars, triples[t])))
        w = TensorSum(summands)
        std, cert = standardize(ring, w)
        count += 1
        moves_total += len(cert.moves)
        if std:
            ok = False
            break
        if not verify_certificate(cert):
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
