"""Kernel of the multiplication map R^3 x R^3 -> R^6 on cubic Fermat
rings: generator families, standardization certificates, and the
span-equals-kernel verdicts."""

import itertools
import math
from fractions import Fraction

import pytest

from grifcalc import mulkernel
from grifcalc.errors import DegreeMismatch, NotInKernel, OutOfRange
from grifcalc.jacobian import HypersurfaceRing, TensorSum, monomials_of_degree
from grifcalc.linalg import FRACTION_FIELD, RowReducer, rank_and_kernel
from grifcalc.mulkernel import (MAX_NVARS, MIN_NVARS, Certificate,
                                RankOneGenerator, StandardTensor,
                                kernel_dimension, mu_apply,
                                rank_one_generators, span_equals_kernel,
                                standardize, swap_identity_holds,
                                tensor_in_kernel, verify_certificate,
                                index_monomial, _generators, _move_terms,
                                _mu_kernel, _span_rank, _standardize_supports,
                                _support, _triples)
from grifcalc.scalar import Scalar

ONE = Scalar.from_fraction(1)


def brute_pair_count(nvars):
    # oracle: unordered products of reduced cubic monomials sharing a
    # variable, counted as ordered tensors m (x) m' with shared support
    monos = [e for e in monomials_of_degree(nvars, 3) if max(e) <= 1]
    count = 0
    for left in monos:
        for right in monos:
            if any(l and r for l, r in zip(left, right)):
                count += 1
    return count


def test_mu_apply_products():
    ring = HypersurfaceRing.fermat(3, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (3, 4, 5)))
    image = mu_apply(ring, w)
    assert not image.is_zero()
    assert set(image.terms) == {(1, 1, 1, 1, 1, 1)}
    shared = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                              index_monomial(6, (0, 4, 5)))
    assert mu_apply(ring, shared).is_zero()


def test_mu_apply_requires_cubic_fermat():
    from grifcalc.jacobian import HomogeneousPolynomial, HypersurfaceRing
    quartic = HypersurfaceRing.fermat(4, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (3, 4, 5)))
    with pytest.raises(DegreeMismatch):
        mu_apply(quartic, w)


def test_generator_counts_against_brute_oracle():
    pairs6 = rank_one_generators(6, family="monomial_pair")
    assert len(pairs6) == 380 == brute_pair_count(6)
    pairs9 = rank_one_generators(9, family="monomial_pair")
    assert len(pairs9) == 5376 == brute_pair_count(9)
    swaps9 = rank_one_generators(9, family="swap_binomial")
    assert len(swaps9) == 31752


def test_all_generators_live_in_the_kernel_small():
    for nvars in (4, 5, 6):
        for gen in rank_one_generators(nvars):
            assert gen.in_kernel(), gen


def test_generator_family_shapes():
    for gen in rank_one_generators(5):
        if gen.family_tag == "monomial_pair":
            assert len(gen.left.terms) == 1 and len(gen.right.terms) == 1
        else:
            assert len(gen.left.terms) == 2 and len(gen.right.terms) == 2
    with pytest.raises(ValueError):
        RankOneGenerator("mystery", ((0, 1, 2), (0, 3, 4)))


def test_kernel_dimensions():
    # (kernel dim, rank of mu, dim R^3); on four variables R^6 = 0 so
    # the kernel is everything
    assert kernel_dimension(4) == (16, 0, 4)
    assert kernel_dimension(5) == (100, 0, 10)
    assert kernel_dimension(6) == (399, 1, 20)
    assert kernel_dimension(7) == (1218, 7, 35)
    assert kernel_dimension(9) == (6972, 84, 84)


def _mu_rows(nvars):
    # oracle: the mu matrix, one row per R^6 sextet, column index
    # s * len(triples) + t for the ordered pair of triples (s, t)
    triples = list(itertools.combinations(range(nvars), 3))
    index = {t: i for i, t in enumerate(triples)}
    n3 = len(triples)
    rows = []
    for sextet in itertools.combinations(range(nvars), 6):
        row = {}
        for left in itertools.combinations(sextet, 3):
            right = tuple(sorted(set(sextet) - set(left)))
            row[index[left] * n3 + index[right]] = Fraction(1)
        rows.append(row)
    return rows, triples


def test_closed_form_kernel_matches_row_reduction():
    # the closed-form basis is the one a Fraction row reduction of the mu
    # matrix returns, vector for vector and in the same order
    for nvars in range(MIN_NVARS, MAX_NVARS + 1):
        rows, triples = _mu_rows(nvars)
        n3 = len(triples)
        rank, kern = rank_and_kernel(rows, n3 * n3)
        assert rank == len(rows) == math.comb(nvars, 6)
        assert kernel_dimension(nvars) == (n3 * n3 - rank, rank, n3)
        expected = [{(triples[c // n3], triples[c % n3]): v
                     for c, v in vec.items()} for vec in kern]
        assert list(_mu_kernel(nvars)) == expected


def test_standard_tensor_validation():
    st = StandardTensor(9, (0, 2, 3, 5, 7, 8))
    assert st.left_indices == (0, 2, 3)
    assert st.right_indices == (5, 7, 8)
    with pytest.raises(ValueError):
        StandardTensor(9, (0, 2, 2, 5, 7, 8))
    with pytest.raises(OutOfRange):
        StandardTensor(6, (0, 1, 2, 3, 4, 6))


def test_standardize_already_standard():
    ring = HypersurfaceRing.fermat(3, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (3, 4, 5)))
    std, cert = standardize(ring, w)
    assert list(std) == [StandardTensor(6, (0, 1, 2, 3, 4, 5))]
    assert std[StandardTensor(6, (0, 1, 2, 3, 4, 5))] == ONE
    assert cert.moves == ()


def test_standardize_single_swap():
    # one bubbling step: three certificate moves, standard core preserved
    ring = HypersurfaceRing.fermat(3, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 3)),
                         index_monomial(6, (2, 4, 5)))
    std, cert = standardize(ring, w)
    assert list(std) == [StandardTensor(6, (0, 1, 2, 3, 4, 5))]
    assert len(cert.moves) == 3
    assert verify_certificate(cert)
    tags = sorted(gen.family_tag for gen, _ in cert.moves)
    assert tags == ["monomial_pair", "monomial_pair", "swap_binomial"]


def _index_expansion(summands):
    # oracle: sum of c * (left (x) right) over polynomial sides, keyed by
    # the index triples of its monomial tensors
    out = {}
    for c, left, right in summands:
        expansion = TensorSum.simple(left, right, c).monomial_expansion()
        for (el, er), v in expansion.items():
            key = (_support(el), _support(er))
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def test_standardize_round_trip():
    # w equals its standard part plus the certificate moves, exactly; the
    # moves go through their polynomial sides, not through the replay
    ring = HypersurfaceRing.fermat(3, 7)
    w = TensorSum.simple(index_monomial(7, (2, 5, 6)),
                         index_monomial(7, (0, 1, 3)))
    std, cert = standardize(ring, w)
    summands = [(coeff, st.tensor().summands[0][1], st.tensor().summands[0][2])
                for st, coeff in std.items()]
    summands += [(coeff, gen.left, gen.right) for gen, coeff in cert.moves]
    gap = _index_expansion(list(w.summands)
                           + [(-c, l, r) for c, l, r in summands])
    assert not gap


def test_standardize_shared_index_is_pure_certificate():
    ring = HypersurfaceRing.fermat(3, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (0, 4, 5)))
    std, cert = standardize(ring, w)
    assert std == {}
    assert len(cert.moves) == 1
    assert cert.moves[0][0].family_tag == "monomial_pair"


def test_standardize_kernel_membership_criterion():
    ring = HypersurfaceRing.fermat(3, 6)
    in_kernel = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                                 index_monomial(6, (0, 4, 5)))
    std, _ = standardize(ring, in_kernel)
    assert std == {}
    not_in_kernel = TensorSum.simple(index_monomial(6, (0, 1, 3)),
                                     index_monomial(6, (2, 4, 5)))
    std, _ = standardize(ring, not_in_kernel)
    assert std != {}


def test_verify_certificate_cases():
    assert verify_certificate(Certificate((), {}, {}))
    good = RankOneGenerator("monomial_pair", ((0, 1, 2), (0, 4, 5)))
    assert verify_certificate(Certificate(((good, ONE),),
                                          {good.indices: ONE}, {}))
    bad = RankOneGenerator("monomial_pair", ((0, 1, 2), (3, 4, 5)))
    assert not verify_certificate(Certificate(((bad, ONE),),
                                              {bad.indices: ONE}, {}))


def _mutated(cert, moves=None, standard=None):
    return Certificate(cert.moves if moves is None else tuple(moves),
                       cert.terms,
                       cert.standard if standard is None else standard)


def test_verify_certificate_rejects_mutants():
    # a genuine certificate with swaps and a standard part, then one
    # mutation at a time; each breaks the replayed identity or a shape
    ring = HypersurfaceRing.fermat(3, 7)
    w = TensorSum.simple(index_monomial(7, (2, 5, 6)),
                         index_monomial(7, (0, 1, 3)))
    std, cert = standardize(ring, w)
    assert std and cert.standard == std and verify_certificate(cert)
    moves = list(cert.moves)
    swap_at = next(i for i, (gen, _) in enumerate(moves)
                   if gen.family_tag == "swap_binomial")
    for i in range(len(moves)):
        assert not verify_certificate(_mutated(cert, moves[:i] + moves[i + 1:]))
    changed = list(moves)
    changed[swap_at] = (moves[swap_at][0], moves[swap_at][1] * 2)
    assert not verify_certificate(_mutated(cert, changed))
    (t, u, a, k), coeff = moves[swap_at][0].indices, moves[swap_at][1]
    a_in_t = list(moves)
    a_in_t[swap_at] = (RankOneGenerator("swap_binomial",
                                        (tuple(sorted((t[0], a))), u, a, k)),
                       coeff)
    assert not verify_certificate(_mutated(cert, a_in_t))
    for key in std:
        off = dict(std)
        off[key] += 1
        assert not verify_certificate(_mutated(cert, standard=off))


def test_verify_certificate_checks_shapes_of_balanced_moves():
    # the identity balances, so only the shape check can reject these
    for indices in (((0, 1), (2, 3), 0, 4),   # a in t
                    ((0, 1), (2, 3), 4, 2),   # k in u
                    ((0, 1), (2, 3), 4, 4)):  # a == k
        gen = RankOneGenerator("swap_binomial", indices)
        assert not gen.shape_ok()
        terms = dict(_move_terms(gen.family_tag, gen.indices))
        assert not verify_certificate(Certificate(((gen, 1),), terms, {}))
    gen = RankOneGenerator("swap_binomial", ((0, 1), (2, 3), 4, 5))
    terms = dict(_move_terms(gen.family_tag, gen.indices))
    assert verify_certificate(Certificate(((gen, 1),), terms, {}))


def test_verify_certificate_rejects_malformed_index_entries():
    # an entry that is not a tuple of nonnegative ints of the right length
    # fails the shape test, so the replay answers False instead of raising
    for tag, indices in (("monomial_pair", (1, 2)),
                         ("monomial_pair", ((0, 1), (0, 2, 3))),
                         ("monomial_pair", ([0, 1, 2], (0, 3, 4))),
                         ("monomial_pair", ((0, 1, 2.0), (0, 3, 4))),
                         ("monomial_pair", (("a", "b", "c"), ("a", "d", "e"))),
                         ("monomial_pair", ((-1, 0, 1), (-1, 2, 3))),
                         ("monomial_pair", (None, None)),
                         ("swap_binomial", (1, 2, 3, 4)),
                         ("swap_binomial", ((0, 1, 2), (3, 4), 5, 6)),
                         ("swap_binomial", ([0, 1], (2, 3), 4, 5)),
                         ("swap_binomial", ((0, 1), (2, 3), 4.0, 5)),
                         ("swap_binomial", ((0, 1), (2, 3), "a", 5)),
                         ("swap_binomial", ((0, 1), (2, 3), -1, 5)),
                         ("swap_binomial", ((0, 1), (2, 3), True, 5))):
        gen = RankOneGenerator(tag, indices)
        assert gen.shape_ok() is False, indices
        assert verify_certificate(Certificate(((gen, 1),), {}, {})) is False


def test_kernel_certificates_replay_and_mutants_fail():
    for nvars in (6, 7):
        for vec in _mu_kernel(nvars):
            std, cert = _standardize_supports(nvars, vec)
            assert std == {} and verify_certificate(cert)
            if cert.moves:
                gen, coeff = cert.moves[-1]
                assert not verify_certificate(_mutated(
                    cert, cert.moves[:-1] + ((gen, coeff + 1),)))


def test_move_terms_match_polynomial_view():
    for nvars in (4, 5, 6):
        for gen in rank_one_generators(nvars):
            assert gen.shape_ok()
            assert dict(_move_terms(gen.family_tag, gen.indices)) == \
                _index_expansion([(1, gen.left, gen.right)]), gen


def test_shape_predicate_agrees_with_in_kernel():
    # pairs: sharing an index is exactly vanishing under mu.  Swaps: a
    # valid shape is exactly a kernel tensor whose sides are two
    # square-free terms each (a in t puts a square on a side, a == k
    # collapses them)
    triples = list(itertools.combinations(range(6), 3))
    for left in triples:
        for right in triples:
            gen = RankOneGenerator("monomial_pair", (left, right))
            assert gen.shape_ok() == gen.in_kernel(), gen
    duos = list(itertools.combinations(range(6), 2))
    for t, u in itertools.product(duos, duos):
        for a, k in itertools.product(range(6), range(6)):
            gen = RankOneGenerator("swap_binomial", (t, u, a, k))
            sides = (gen.left, gen.right)
            # each side in one constructor call equals the sum of its two
            # monomials, also where a == k adds or cancels them
            assert sides == tuple(
                index_monomial(gen.nvars, base + (a,))
                + index_monomial(gen.nvars, base + (k,), sign)
                for base, sign in ((t, 1), (u, -1))), gen
            two_square_free = all(
                len(side.terms) == 2 and max(map(max, side.terms)) == 1
                for side in sides)
            assert gen.shape_ok() == (gen.in_kernel() and two_square_free), gen


def test_swap_identity():
    for nvars in (6, 7):
        assert swap_identity_holds(nvars)


def _scaled_swap_term(at, factor):
    # _move_terms with the coefficient of every swap's term number `at`
    # multiplied by factor: (ta, uk) is term 1, (tk, ua) term 2
    move_terms = mulkernel._move_terms

    def mutant(family_tag, indices):
        terms = move_terms(family_tag, indices)
        if family_tag == "swap_binomial":
            key, sign = terms[at]
            terms = terms[:at] + ((key, factor * sign),) + terms[at + 1:]
        return terms
    return mutant


def test_swap_identity_refuses_a_wrong_expansion(monkeypatch):
    # the lemma compares _move_terms with the polynomial sides term by
    # term: a flipped sign or a term listed twice must fail it
    move_terms = mulkernel._move_terms
    for mutant in (_scaled_swap_term(1, -1),
                   lambda tag, indices: move_terms(tag, indices) * 2):
        monkeypatch.setattr(mulkernel, "_move_terms", mutant)
        swap_identity_holds.cache_clear()
        assert swap_identity_holds(6) is False
    swap_identity_holds.cache_clear()


def test_span_equals_kernel_exact_small():
    for nvars in (4, 5, 6, 7):
        report = span_equals_kernel(nvars, mode="span_rank")
        assert report.verdict is True
        assert report.span_rank == report.kernel_dim
        assert report.exact is True


def _reducer_span_rank(nvars, field):
    # oracle: the span rank by incremental row reduction over field, the
    # loop that the component count replaced
    kernel_dim, _, n3 = kernel_dimension(nvars)
    reducer = RowReducer(field)
    tindex = {t: i for i, t in enumerate(_triples(nvars))}
    value = {1: field.one, -1: field.neg(field.one)}

    def add(gen):
        reducer.add({tindex[l] * n3 + tindex[r]: value[sign]
                     for (l, r), sign in _move_terms(gen.family_tag,
                                                     gen.indices)})

    for gen in _generators(nvars, "monomial_pair"):
        add(gen)
    pair_rank = reducer.rank
    swap_streamed = 0
    for gen in _generators(nvars, "swap_binomial"):
        if reducer.rank >= kernel_dim:
            break
        swap_streamed += 1
        add(gen)
    span_rank = reducer.rank
    return pair_rank, swap_streamed, span_rank, span_rank == kernel_dim


def test_component_count_matches_row_reduction():
    for nvars in range(4, 9):
        report = span_equals_kernel(nvars, mode="span_rank")
        expected = _reducer_span_rank(nvars, FRACTION_FIELD)
        assert (report.pair_rank, report.swap_streamed, report.span_rank,
                report.verdict) == expected, nvars


def test_component_count_refuses_other_shapes(monkeypatch):
    # the count holds only for +-(e_x - e_y) beside the pair columns; a
    # doubled entry that survives the projection must not be counted
    monkeypatch.setattr(mulkernel, "_move_terms", _scaled_swap_term(2, 2))
    with pytest.raises(ArithmeticError):
        span_equals_kernel(6)


def test_component_count_refuses_a_flipped_sign(monkeypatch):
    # e_x + e_y beside the pair columns is not an edge of the graph either
    monkeypatch.setattr(mulkernel, "_move_terms", _scaled_swap_term(1, -1))
    with pytest.raises(ArithmeticError):
        span_equals_kernel(6)


def test_span_stream_builds_no_generator_objects(monkeypatch):
    # the span count runs on index tuples: a RankOneGenerator made anywhere
    # on its path would raise here
    def refuse(self):
        raise AssertionError("RankOneGenerator built in the span stream")

    monkeypatch.setattr(RankOneGenerator, "__post_init__", refuse)
    assert _span_rank(9, 6972) == (5376, 29602, 6972)


# The parent implementation of the span stream and of standardization,
# verbatim apart from a _parent prefix on its names: generator objects,
# dict move terms and a running sum keyed by StandardTensor.
def _parent_with(duo, i):
    """The increasing triple of an increasing pair and one more index."""
    p, q = duo
    return (i, p, q) if i < p else (p, i, q) if i < q else (p, q, i)


def _parent_move_terms(gen):
    """A shape-valid generator expanded into monomial tensors
    {(left_triple, right_triple): +-1}: one term for a pair, four for a
    swap."""
    if gen.family_tag == "monomial_pair":
        return {gen.indices: 1}
    t, u, a, k = gen.indices
    ta, tk = _parent_with(t, a), _parent_with(t, k)
    ua, uk = _parent_with(u, a), _parent_with(u, k)
    return {(ta, ua): 1, (ta, uk): -1, (tk, ua): 1, (tk, uk): -1}


def _parent_generators(nvars, family=None):
    """Every shape-valid generator over nvars variables, pairs first."""
    if family in (None, "monomial_pair"):
        triples = _triples(nvars)
        for left, right in itertools.product(triples, triples):
            if set(left) & set(right):
                yield RankOneGenerator("monomial_pair", (left, right))
    if family in (None, "swap_binomial"):
        duos = list(itertools.combinations(range(nvars), 2))
        for t, u in itertools.product(duos, duos):
            free = [i for i in range(nvars) if i not in t + u]
            for a, k in itertools.permutations(free, 2):
                yield RankOneGenerator("swap_binomial", (t, u, a, k))


def _parent_span_rank(nvars, kernel_dim):
    pairs = set()
    for gen in _parent_generators(nvars, "monomial_pair"):
        terms = _parent_move_terms(gen)
        if len(terms) != 1 or set(terms.values()) - {1, -1}:
            raise ArithmeticError("pair %r is not a unit vector" % (gen,))
        pairs.update(terms)
    parent = {}

    def root(x):
        path = []
        while x in parent:
            path.append(x)
            x = parent[x]
        for y in path:
            parent[y] = x
        return x

    rank = len(pairs)
    streamed = 0
    for gen in _parent_generators(nvars, "swap_binomial"):
        if rank >= kernel_dim:
            break
        streamed += 1
        rest = {c: s for c, s in _parent_move_terms(gen).items()
                if c not in pairs}
        if not rest:
            continue
        if sorted(rest.values()) != [-1, 1]:
            raise ArithmeticError("swap %r leaves %r beside the pair columns, "
                                  "not e_x - e_y" % (gen, rest))
        x, y = map(root, rest)
        if x != y:
            parent[x] = y
            rank += 1
    return len(pairs), streamed, rank


def _parent_standardize_supports(nvars, terms):
    std = {}
    moves = []
    for (left, right), coeff in terms.items():
        if set(left) & set(right):
            moves.append((RankOneGenerator("monomial_pair", (left, right)),
                          coeff))
            continue
        while left[-1] > right[0]:
            t, k = left[:2], left[-1]
            u, a = right[1:], right[0]
            ta, uk = _parent_with(t, a), _parent_with(u, k)
            moves.append((RankOneGenerator("swap_binomial", (t, u, a, k)),
                          coeff))
            moves.append((RankOneGenerator("monomial_pair",
                                           (ta, _parent_with(u, a))), -coeff))
            moves.append((RankOneGenerator("monomial_pair",
                                           (_parent_with(t, k), uk)), coeff))
            left, right = ta, uk
        key = StandardTensor(nvars, left + right)
        total = std.get(key, 0) + coeff
        if total:
            std[key] = total
        else:
            std.pop(key, None)
    return std, Certificate(tuple(moves), terms, std)


def _parent_verify_certificate(cert):
    residual = dict(cert.terms)
    claimed = [((st.left_indices, st.right_indices), c)
               for st, c in cert.standard.items()]
    for gen, coeff in cert.moves:
        if not gen.shape_ok():
            return False
        claimed.extend((key, sign * coeff)
                       for key, sign in _parent_move_terms(gen).items())
    for key, c in claimed:
        residual[key] = residual.get(key, 0) - c
    return not any(residual.values())


def test_span_stream_matches_the_parent_oracle():
    for nvars in range(MIN_NVARS, MAX_NVARS + 1):
        kernel_dim = kernel_dimension(nvars)[0]
        assert _span_rank(nvars, kernel_dim) == \
            _parent_span_rank(nvars, kernel_dim), nvars
    assert list(_generators(6)) == list(_parent_generators(6))


def _moves(cert):
    return [(gen.family_tag, gen.indices, coeff) for gen, coeff in cert.moves]


def test_standardization_matches_the_parent_oracle():
    # every kernel certificate: the same moves in the same order, the same
    # terms and standard part, and the same replay verdict, also on a
    # mutant and on a vector pushed off the kernel
    for nvars in range(MIN_NVARS, 9):
        off = {}
        for vec in _mu_kernel(nvars):
            if len(vec) == 2:  # its non-standard split alone
                off = {key: c for key, c in vec.items() if c > 0}
            std, cert = _standardize_supports(nvars, vec)
            old_std, old_cert = _parent_standardize_supports(nvars, vec)
            assert _moves(cert) == _moves(old_cert)
            assert (std, cert.terms, cert.standard) == \
                (old_std, old_cert.terms, old_cert.standard)
            assert verify_certificate(cert) is True
            assert _parent_verify_certificate(old_cert) is True
            if cert.moves:
                gen, coeff = cert.moves[-1]
                bad = _mutated(cert, cert.moves[:-1] + ((gen, coeff + 1),))
                assert verify_certificate(bad) is False
                assert _parent_verify_certificate(bad) is False
        if nvars < 6:  # no sextet, so every split is a kernel vector
            continue
        std, cert = _standardize_supports(nvars, off)
        old_std, old_cert = _parent_standardize_supports(nvars, off)
        assert _moves(cert) == _moves(old_cert) and std == old_std != {}
        assert verify_certificate(cert) == \
            _parent_verify_certificate(old_cert) is True
    # indices past MAX_NVARS, as in a larger ring, miss the triple table
    big = {((9, 10, 11), (0, 1, 2)): 3, ((2, 5, 11), (0, 10, 12)): -1}
    std, cert = _standardize_supports(13, big)
    old_std, old_cert = _parent_standardize_supports(13, big)
    assert _moves(cert) == _moves(old_cert) and std == old_std != {}
    assert verify_certificate(cert) is _parent_verify_certificate(old_cert)
    assert verify_certificate(cert) is True


def test_span_equals_kernel_modp_nine_variables():
    report = span_equals_kernel(9, mode="span_rank")
    assert report.verdict is True
    assert report.kernel_dim == 6972
    assert report.span_rank == 6972
    assert report.dim_r3 == 84 and report.dim_r6 == 84
    assert report.exact is True
    assert report.prime is None


def test_span_equals_kernel_standardize_mode():
    report = span_equals_kernel(6, mode="standardize")
    assert report.verdict is True
    assert report.standardized_vectors == 399
    assert report.swap_identity_checked
    assert report.certificate_moves > 0


def test_standardize_runs_prove_the_ring_lemmas_once():
    swap_identity_holds.cache_clear()
    for _ in range(2):
        assert span_equals_kernel(5, mode="standardize").verdict is True
    info = swap_identity_holds.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_span_equals_kernel_counts_pinned():
    for nvars, moves, vectors in ((7, 1715, 1218), (8, 5096, 3108),
                                  (9, 12936, 6972)):
        report = span_equals_kernel(nvars, mode="standardize")
        assert report.verdict is True
        assert report.certificate_moves == moves
        assert report.standardized_vectors == vectors
    for nvars, streamed in ((8, 11447), (9, 29602)):
        report = span_equals_kernel(nvars, mode="span_rank")
        assert report.verdict is True
        assert report.swap_streamed == streamed


def test_span_report_json_shape():
    report = span_equals_kernel(5, mode="span_rank")
    data = report.to_json()
    for key in ("nvars", "mode", "exact", "prime", "dim_r3", "dim_r6",
                "kernel_dim", "span_rank", "verdict"):
        assert key in data


def test_nvars_range_guards():
    with pytest.raises(OutOfRange):
        span_equals_kernel(3)
    with pytest.raises(OutOfRange):
        span_equals_kernel(10)


def test_tensor_in_kernel():
    ring = HypersurfaceRing.fermat(3, 6)
    w = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                         index_monomial(6, (0, 4, 5)))
    assert tensor_in_kernel(ring, w)
    out = TensorSum.simple(index_monomial(6, (0, 1, 2)),
                           index_monomial(6, (3, 4, 5)))
    with pytest.raises(NotInKernel):
        tensor_in_kernel(ring, out)
