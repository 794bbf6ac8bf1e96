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
                                _mu_kernel, _standardize_supports, _support,
                                _triples, _with)
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
        rank, kern = rank_and_kernel(rows, n3 * n3, FRACTION_FIELD)
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
        assert not verify_certificate(Certificate(((gen, 1),),
                                                  _move_terms(gen), {}))
    gen = RankOneGenerator("swap_binomial", ((0, 1), (2, 3), 4, 5))
    assert verify_certificate(Certificate(((gen, 1),), _move_terms(gen), {}))


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
            assert _move_terms(gen) == _index_expansion(
                [(1, gen.left, gen.right)]), gen


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
            two_square_free = all(
                len(side.terms) == 2 and max(map(max, side.terms)) == 1
                for side in sides)
            assert gen.shape_ok() == (gen.in_kernel() and two_square_free), gen


def test_swap_identity():
    for nvars in (6, 7):
        assert swap_identity_holds(nvars)


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
                     for (l, r), sign in _move_terms(gen).items()})

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
    def doubled(gen):
        terms = _move_terms(gen)
        if gen.family_tag == "swap_binomial":
            t, u, a, k = gen.indices
            terms[_with(t, k), _with(u, a)] *= 2
        return terms

    monkeypatch.setattr(mulkernel, "_move_terms", doubled)
    with pytest.raises(ArithmeticError):
        span_equals_kernel(6)


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
