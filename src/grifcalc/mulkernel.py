"""Kernel of the multiplication map R^3 (x) R^3 -> R^6 for Fermat cubics.

For the Fermat cubic ring in nvars variables every R^3 basis monomial is a
square-free triple x_i x_j x_k, so the multiplication map mu sends a pair
of triples to their product, which survives only when the six indices are
distinct.  The kernel of mu is spanned by rank-one decomposable tensors of
two shapes, each named by index tuples:

  monomial_pair   (l, r): x_l (x) x_r with triples l, r sharing an index
                  (the product has a square, hence is 0),
  swap_binomial   (t, u, a, k): t*(x_a + x_k) (x) u*(x_a - x_k) with t, u
                  index pairs avoiding a != k (the product contains
                  x_a^2 - x_k^2, hence is 0).

mu has one row per sextet, equal to 1 on each of its splits into two
triples.  The rows have disjoint supports, so rank mu = C(nvars, 6) and
ker(mu) has a closed-form basis over index triples (see _mu_kernel).

span_equals_kernel certifies that the two families span the whole kernel,
either by a streamed rank count (see _span_rank: pairs are unit vectors,
and what a swap leaves beside them is an edge of a graph, so the rank is
a component count, exact at every size) or by rewriting every kernel
basis vector to its standard form with a certificate of moves that
verify_certificate replays.  Neither builds the mu matrix, and both expand
a generator through _move_terms.  Both run on index tuples: the count
builds no objects, and standardization builds only what it returns, the
certificate moves and the StandardTensors that survive.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

from .errors import DegreeMismatch, NotInKernel, OutOfRange
from .jacobian import (
    HomogeneousPolynomial,
    HypersurfaceRing,
    TensorSum,
)

MIN_NVARS = 4
MAX_NVARS = 9
FAMILIES = {"monomial_pair": 2, "swap_binomial": 4}  # tag: index entries
_SIGNS = (1, -1)


def index_monomial(nvars, indices, coeff=1):
    """coeff times the product of x_i over indices (with repeats)."""
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return HomogeneousPolynomial.monomial(nvars, e, coeff)


def _increasing(idx, size):
    """Whether idx is a tuple of size (2 or 3) increasing nonnegative ints."""
    return (type(idx) is tuple and len(idx) == size
            and type(idx[0]) is type(idx[1]) is type(idx[-1]) is int
            and 0 <= idx[0] < idx[1] and idx[-2] < idx[-1])


@dataclass(frozen=True)
class RankOneGenerator:
    """A decomposable tensor named by its family and index tuples:
    (left_triple, right_triple) for monomial_pair, (t, u, a, k) for
    swap_binomial.  left and right build the polynomial sides once, on
    first use; a swap side carries +-1 (2 when a == k) as int."""

    family_tag: str
    indices: tuple

    def __post_init__(self):
        if self.family_tag not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family_tag,))
        if len(self.indices) != FAMILIES[self.family_tag]:
            raise ValueError("%s takes %d index entries"
                             % (self.family_tag, FAMILIES[self.family_tag]))

    def shape_ok(self):
        """The index condition that puts the tensor in ker(mu): increasing
        triples sharing an index, or increasing pairs t, u with a != k
        outside t and u; every entry a tuple of nonnegative ints."""
        if self.family_tag == "monomial_pair":
            left, right = self.indices
            return (_increasing(left, 3) and _increasing(right, 3) and (
                left[0] in right or left[1] in right or left[2] in right))
        t, u, a, k = self.indices
        return (_increasing(t, 2) and _increasing(u, 2)
                and type(a) is type(k) is int and 0 <= a and 0 <= k and a != k
                and a not in t and a not in u and k not in t and k not in u)

    @property
    def nvars(self):
        """The fewest variables holding every index; more change nothing."""
        idx = self.indices
        return 1 + max(idx[0] + idx[1] + idx[2:])

    def _side(self, which):
        n = self.nvars
        if self.family_tag == "monomial_pair":
            return index_monomial(n, self.indices[which])
        base, a, k = self.indices[which], self.indices[2], self.indices[3]
        # t*(x_a + x_k) on the left, u*(x_a - x_k) on the right, in one
        # constructor call; a == k (no kernel shape) gives 2*t*x_a and 0
        ea, ek = (tuple(map((base + (i,)).count, range(n))) for i in (a, k))
        terms = ({ea: _SIGNS[0], ek: _SIGNS[which]} if a != k
                 else {} if which else {ea: 2 * _SIGNS[0]})
        return HomogeneousPolynomial(n, sum(ea), terms)

    @functools.cached_property
    def left(self):
        return self._side(0)

    @functools.cached_property
    def right(self):
        return self._side(1)

    def in_kernel(self):
        ring = HypersurfaceRing.fermat(3, self.nvars)
        return ring.normal_form(self.left * self.right).is_zero()


# _WITH[duo][i] is the increasing triple of an increasing pair duo and one
# more index i, for every index below MAX_NVARS
_WITH = {duo: tuple(tuple(sorted(duo + (i,))) for i in range(MAX_NVARS))
         for duo in itertools.combinations(range(MAX_NVARS), 2)}


def _move_terms(family_tag, indices):
    """The generator (family_tag, indices), shape-valid, expanded into
    monomial tensors ((left_triple, right_triple), +-1): one term for a
    pair, four for a swap."""
    if family_tag == "monomial_pair":
        return ((tuple(indices), 1),)
    t, u, a, k = indices
    try:
        ta, tk, ua, uk = _WITH[t][a], _WITH[t][k], _WITH[u][a], _WITH[u][k]
    except (KeyError, IndexError):  # an index of a ring past MAX_NVARS
        ta, tk, ua, uk = (tuple(sorted(d + (i,)))
                          for d, i in ((t, a), (t, k), (u, a), (u, k)))
    return (((ta, ua), 1), ((ta, uk), -1), ((tk, ua), 1), ((tk, uk), -1))


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
            index_monomial(self.nvars, self.left_indices),
            index_monomial(self.nvars, self.right_indices))


@dataclass(frozen=True)
class Certificate:
    """The claim terms = sum(standard) + sum(coeff * move), replayed by
    verify_certificate: terms {(left_triple, right_triple): coeff},
    standard {StandardTensor: coeff}, moves ((RankOneGenerator, coeff),)."""

    moves: tuple
    terms: dict
    standard: dict


def _check_cubic_tensor(ring, w):
    """Raise DegreeMismatch unless ring is a cubic Fermat ring and w is
    zero or a degree (3, 3) tensor over the ring's variables."""
    if not (ring.fermat_flag and ring.degree == 3):
        raise DegreeMismatch("tensors of R^3 (x) R^3 need a cubic Fermat ring")
    if w.is_zero():
        return
    if w.nvars != ring.nvars:
        raise DegreeMismatch("tensor over %d variables, ring over %d"
                             % (w.nvars, ring.nvars))
    if w.left_degree != 3 or w.right_degree != 3:
        raise DegreeMismatch("expected a degree (3, 3) tensor, got (%d, %d)"
                             % (w.left_degree, w.right_degree))


def mu_apply(ring, w):
    """Image of a tensor sum under multiplication, as a reduced form."""
    _check_cubic_tensor(ring, w)
    out = HomogeneousPolynomial.zero(ring.nvars, 6)
    for c, l, r in w.summands:
        out = out + ring.normal_form(l * r).scale(c)
    return out


def check_nvars(nvars):
    """Raise OutOfRange unless span_equals_kernel accepts nvars."""
    if not MIN_NVARS <= nvars <= MAX_NVARS:
        raise OutOfRange("nvars must lie in [%d, %d]" % (MIN_NVARS, MAX_NVARS))


def _triples(nvars):
    return list(itertools.combinations(range(nvars), 3))


def _shapes(nvars, family=None):
    """(family_tag, indices) of every shape-valid generator over nvars
    variables, pairs first."""
    if family in (None, "monomial_pair"):
        triples = _triples(nvars)
        for left, right in itertools.product(triples, triples):
            if not set(left).isdisjoint(right):
                yield "monomial_pair", (left, right)
    if family in (None, "swap_binomial"):
        duos = list(itertools.combinations(range(nvars), 2))
        for t, u in itertools.product(duos, duos):
            free = [i for i in range(nvars) if i not in t + u]
            for a, k in itertools.permutations(free, 2):
                yield "swap_binomial", (t, u, a, k)


def _generators(nvars, family=None):
    """_shapes as RankOneGenerators."""
    return itertools.starmap(RankOneGenerator, _shapes(nvars, family))


def rank_one_generators(nvars, family=None):
    """All rank-one kernel generators for the cubic Fermat ring.

    family limits the output to "monomial_pair" or "swap_binomial";
    the default returns both, pairs first.
    """
    check_nvars(nvars)
    if family not in (None, *FAMILIES):
        raise ValueError("unknown family %r" % (family,))
    return list(_generators(nvars, family))


def _mu_kernel(nvars):
    """Closed-form basis of ker(mu) as dicts {(left, right): coeff} over
    index triples, in column order (left triple, then right triple).

    A pair of triples sharing an index is its own kernel vector; any other
    split (l, r) of six = sorted(l + r) gives (l, r) minus the standard
    split (six[:3], six[3:]), which itself gives nothing."""
    triples = _triples(nvars)
    for left in triples:
        for right in triples:
            if not set(left).isdisjoint(right):
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


@functools.lru_cache(maxsize=None)
def swap_identity_holds(nvars):
    """Prove, by ring arithmetic over nvars variables, the two lemmas that
    certificate replay rests on.  For every shape-valid generator:

      its polynomial sides multiply to 0 in the Fermat cubic ring, and
      its polynomial view expands to exactly _move_terms.

    Every shape involves at most 6 distinct indices, so 6 variables hold
    all of them up to relabeling.  The answer depends on nvars alone, so it
    is memoised."""
    check_nvars(nvars)
    for gen in _generators(nvars):
        if not gen.in_kernel():
            return False
        left = [(_support(e), c) for e, c in gen.left.terms.items()]
        right = [(_support(e), c) for e, c in gen.right.terms.items()]
        view = {(l, r): cl * cr for l, cl in left for r, cr in right}
        terms = _move_terms(gen.family_tag, gen.indices)
        if len(terms) != len(view) or dict(terms) != view:
            return False
    return True


def standardize(ring, w):
    """Rewrite a kernel tensor as (standard part, certificate).

    The standard part maps StandardTensor to its coefficient.  The
    certificate holds the terms of w over index triples (a side with a
    square is zero in R^3), the standard part, and rank-one moves whose
    sum is the difference; verify_certificate replays that identity.
    Kernel membership is exactly the vanishing of the standard part.
    Indices bubble across the tensor sign by the exchange identity; a
    tensor whose sides share an index is a monomial_pair move itself.
    """
    _check_cubic_tensor(ring, w)
    terms = {}
    for (el, er), coeff in sorted(w.monomial_expansion().items()):
        left = _support(el)
        right = _support(er)
        # a side with a square is already zero in R^3
        if left is not None and right is not None:
            terms[left, right] = coeff
    return _standardize_supports(ring.nvars, terms)


def _standardize_supports(nvars, terms):
    """standardize on {(left_triple, right_triple): coeff} with increasing
    triples, in that order."""
    sums = {}
    moves = []
    for (left, right), coeff in terms.items():
        if not set(left).isdisjoint(right):
            moves.append((RankOneGenerator("monomial_pair", (left, right)),
                          coeff))
            continue
        # t*x_k (x) u*x_a = swap - t*x_a (x) u*x_a + t*x_k (x) u*x_k
        #                   + t*x_a (x) u*x_k
        while left[-1] > right[0]:
            swap = left[:2], right[1:], right[0], left[-1]
            expansion = _move_terms("swap_binomial", swap)
            (ta_ua, _), (ta_uk, _), _, (tk_uk, _) = expansion
            moves.append((RankOneGenerator("swap_binomial", swap), coeff))
            moves.append((RankOneGenerator("monomial_pair", ta_ua), -coeff))
            moves.append((RankOneGenerator("monomial_pair", tk_uk), coeff))
            left, right = ta_uk
        six = left + right
        total = sums.get(six, 0) + coeff
        if total:
            sums[six] = total
        else:
            sums.pop(six, None)
    std = {StandardTensor(nvars, six): c for six, c in sums.items()}
    return std, Certificate(tuple(moves), terms, std)


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
    """Replay a certificate: True exactly when every move has a kernel
    shape (RankOneGenerator.shape_ok) and

        cert.terms = sum(cert.standard) + sum(coeff * _move_terms(move))

    holds coefficient by coefficient over index triples.  That the shapes
    lie in ker(mu) and that _move_terms expands them faithfully are the
    ring lemmas swap_identity_holds proves."""
    residual = dict(cert.terms)
    for st, c in cert.standard.items():
        key = st.left_indices, st.right_indices
        residual[key] = residual.get(key, 0) - c
    for gen, coeff in cert.moves:
        if not gen.shape_ok():
            return False
        for key, sign in _move_terms(gen.family_tag, gen.indices):
            residual[key] = residual.get(key, 0) - sign * coeff
    return not any(residual.values())


@dataclass
class SpanReport:
    """Outcome of a span-versus-kernel certification run.  Both modes are
    exact, so exact is always True and prime always None; the fields keep
    the JSON schema."""

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


def _span_rank(nvars, kernel_dim):
    """(pair_rank, swap_streamed, span_rank): the ranks, over any field, of
    every pair generator and then of swaps streamed until the rank reaches
    kernel_dim.

    A pair is the unit vector on its own column (l, r), so pair_rank counts
    those columns.  With them projected out, a swap (t, u, a, k) leaves
    nothing or e(tk, ua) - e(ta, uk): (ta, ua) and (tk, uk) share an index,
    and (ta, uk), (tk, ua) meet exactly in t and u.  Vectors e_x - e_y have
    the rank of a graph's incidence matrix, the number of edges joining two
    components (Biggs, Algebraic Graph Theory, ch. 4), in every field.  Any
    other shape raises ArithmeticError: the count would not hold for it."""
    pairs = set()
    for shape in _shapes(nvars, "monomial_pair"):
        terms = _move_terms(*shape)
        if len(terms) != 1 or terms[0][1] not in (1, -1):
            raise ArithmeticError("pair %r is not a unit vector" % (shape,))
        pairs.add(terms[0][0])
    parent = {}

    def root(x):
        while x in parent:  # path halving
            parent[x] = x = parent.get(parent[x], parent[x])
        return x

    rank = len(pairs)
    streamed = 0
    for shape in _shapes(nvars, "swap_binomial"):
        if rank >= kernel_dim:
            break
        streamed += 1
        rest = [cs for cs in _move_terms(*shape) if cs[0] not in pairs]
        if not rest:
            continue
        if len(rest) != 2 or {rest[0][1], rest[1][1]} != {1, -1}:
            raise ArithmeticError("swap %r leaves %r beside the pair columns, "
                                  "not e_x - e_y" % (shape, rest))
        x, y = root(rest[0][0]), root(rest[1][0])
        if x != y:
            parent[x] = y
            rank += 1
    return len(pairs), streamed, rank


def span_equals_kernel(nvars, mode="span_rank"):
    """Certify that the rank-one families span ker(mu) for the cubic
    Fermat ring in nvars variables.

    mode "span_rank" counts the rank of the streamed generator vectors
    (_span_rank: pair columns plus graph components, no elimination) and
    compares it with dim ker(mu); the count is exact for every supported
    nvars.

    mode "standardize" rewrites every closed-form kernel basis vector to
    standard form and demands an empty standard part with a certificate
    that replays; this path is exact for every supported nvars and also
    proves the ring lemmas behind the replay (swap_identity_holds).
    """
    check_nvars(nvars)
    if mode not in ("span_rank", "standardize"):
        raise ValueError("unknown mode %r" % (mode,))
    kernel_dim, mu_rank, n3 = kernel_dimension(nvars)
    base = dict(
        # mu is onto R^6, one basis monomial per sextet
        nvars=nvars, mode=mode, exact=True, prime=None, dim_r3=n3,
        dim_r6=mu_rank, mu_rank=mu_rank, kernel_dim=kernel_dim,
        # ordered pairs of triples minus the disjoint ones
        pair_count=n3 * (n3 - math.comb(nvars - 3, 3)),
        standardized_vectors=0, certificate_moves=0,
        swap_identity_checked=False,
    )

    if mode == "span_rank":
        pair_rank, swap_streamed, span_rank = _span_rank(nvars, kernel_dim)
        return SpanReport(
            pair_rank=pair_rank, swap_streamed=swap_streamed,
            span_rank=span_rank, verdict=span_rank == kernel_dim, **base)

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
    identity_ok = swap_identity_holds(min(nvars, 6))
    base.update(standardized_vectors=count, certificate_moves=moves_total,
                swap_identity_checked=True)
    return SpanReport(
        pair_rank=0, swap_streamed=0, span_rank=kernel_dim if ok else -1,
        verdict=ok and identity_ok, **base)


def tensor_in_kernel(ring, w):
    """Membership test; raises NotInKernel with the offending image."""
    image = mu_apply(ring, w)
    if not image.is_zero():
        raise NotInKernel("mu(w) = %s is nonzero" % (image,))
    return True
