"""Golden for the generic (non-Fermat) Jacobian-ring path.

The CLI's jring command always builds a Fermat ring, so the CLI goldens
never reach the generic elimination.  Three fixed perturbed Fermat forms
do: for each, every graded slice's quotient basis and pivot columns, the
normal forms of a fixed set of monomials, and the middle socle-pairing
determinant are compared byte for byte with tests/data/jring_generic.json.

A change that alters these outputs on purpose rewrites the golden with

    PYTHONPATH=src python tests/test_jring_generic_golden.py

and names the change in CHANGES.md.  With --check the script rewrites
nothing: it compares the golden and exits 1 on a mismatch.

tests/data/jring_generic_markowitz.json is the golden as the Markowitz
pivot rule left it, whose slice bases depended on the rows present.  The
column-order rule gives each slice the standard monomials of its
staircase instead, and a test checks exactly that both files describe
the same rings.
"""

import json
import os
import random
import sys
from fractions import Fraction
from operator import add

from grifcalc import jacobian
from grifcalc.jacobian import (HomogeneousPolynomial, HypersurfaceRing,
                               determinant, monomials_of_degree,
                               pairing_matrix)
from grifcalc.linalg import FRACTION_FIELD, rank, rref

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "jring_generic.json")
MARKOWITZ_GOLDEN = os.path.join(DATA, "jring_generic_markowitz.json")

# (nvars, degree, perturbation terms); the Fermat terms x_i^degree are
# added with coefficient 1
FORMS = [
    (4, 3, {(1, 1, 1, 0): Fraction(3, 2), (0, 2, 0, 1): Fraction(-2, 5),
            (1, 0, 1, 1): Fraction(7, 3)}),
    (5, 3, {(1, 1, 1, 0, 0): Fraction(-4, 3), (0, 0, 1, 1, 1): Fraction(5, 2),
            (2, 0, 0, 0, 1): Fraction(1, 7), (0, 1, 0, 2, 0): Fraction(-3)}),
    (4, 4, {(1, 1, 1, 1): Fraction(-5, 4), (2, 0, 2, 0): Fraction(2, 3),
            (0, 3, 0, 1): Fraction(1, 6)}),
]
# every NF_STRIDE-th monomial of each degree gets its normal form recorded
NF_STRIDE = 4


def _form(nvars, degree, extra):
    terms = {tuple(degree if j == i else 0 for j in range(nvars)): Fraction(1)
             for i in range(nvars)}
    terms.update(extra)
    return HomogeneousPolynomial.from_terms(nvars, terms, degree=degree)


def form_payload(nvars, degree, extra):
    ring = HypersurfaceRing(_form(nvars, degree, extra))
    assert not ring.fermat_flag
    socle = ring.socle_degree
    slices, normal_forms = [], []
    for k in range(socle + 1):
        gb = ring.quotient_basis(k)
        slices.append({"degree": k,
                       "basis": [list(m) for m in gb.basis],
                       "pivot_columns": list(gb.pivots)})
        for m in monomials_of_degree(nvars, k)[::NF_STRIDE]:
            nf = ring.normal_form(HomogeneousPolynomial.monomial(nvars, m))
            normal_forms.append([list(m), nf.to_json()["terms"]])
    unit = HomogeneousPolynomial.monomial(nvars, (0,) * nvars)
    j = socle // 2
    det = determinant(pairing_matrix(ring, unit, j, socle - j))
    return {"nvars": nvars, "degree": degree, "slices": slices,
            "normal_forms": normal_forms, "middle_determinant": str(det)}


def golden_text():
    payload = [form_payload(*form) for form in FORMS]
    return json.dumps(payload, sort_keys=True) + "\n"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_generic_path_matches_golden_bytes():
    assert golden_text() == _read(GOLDEN)


def _terms(recorded):
    # a recorded normal form as {exponent tuple: Fraction}
    return {tuple(t["exps"]): Fraction(t["coeff"]) for t in recorded}


def _dense_det(matrix):
    # Gaussian elimination on dense Fraction rows, apart from linalg
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            for j in range(c, len(m)):
                m[r][j] -= f * m[c][j]
    return det


def test_the_golden_describes_the_rings_of_the_markowitz_golden():
    # T_k maps each old basis monomial of slice k to its new normal form
    # over the new basis.  Both bases span R^k, so T_k is invertible, and
    # every old normal form maps to the new one.  With the socle scale l,
    # NF(old socle) = l * new socle, and n = dim R^j, the pairings obey
    # l * P_old = T_j^t P_new T_{s-j}, so l^n det P_old = det T_j *
    # det T_{s-j} * det P_new.
    old_forms = json.loads(_read(MARKOWITZ_GOLDEN))
    new_forms = json.loads(_read(GOLDEN))
    assert len(old_forms) == len(new_forms) == len(FORMS)
    for form, old, new in zip(FORMS, old_forms, new_forms):
        nvars = form[0]
        ring = HypersurfaceRing(_form(*form))
        assert (len(old["slices"]) == len(new["slices"])
                == ring.socle_degree + 1)
        images, dets = {}, {}
        for old_slice, new_slice in zip(old["slices"], new["slices"]):
            k = new_slice["degree"]
            assert old_slice["degree"] == k
            old_basis = [tuple(m) for m in old_slice["basis"]]
            new_basis = [tuple(m) for m in new_slice["basis"]]
            assert len(old_basis) == len(new_basis)
            images[k] = {b: ring.normal_form(
                HomogeneousPolynomial.monomial(nvars, b)).terms
                for b in old_basis}
            assert all(set(nf) <= set(new_basis) for nf in images[k].values())
            dets[k] = _dense_det([[images[k][b].get(m, 0) for b in old_basis]
                                  for m in new_basis])
            assert dets[k] != 0
        assert ([m for m, _ in old["normal_forms"]]
                == [m for m, _ in new["normal_forms"]])
        for (m, old_nf), (_, new_nf) in zip(old["normal_forms"],
                                            new["normal_forms"]):
            mapped = {}
            for b, c in _terms(old_nf).items():
                for e, v in images[sum(m)][b].items():
                    mapped[e] = mapped.get(e, 0) + c * v
            assert {e: v for e, v in mapped.items() if v} == _terms(new_nf)
        s = ring.socle_degree
        j = s // 2
        (socle_image,) = images[s].values()
        (scale,) = socle_image.values()
        n = len(new["slices"][j]["basis"])
        assert (scale ** n * Fraction(old["middle_determinant"])
                == dets[j] * dets[s - j] * Fraction(new["middle_determinant"]))


def _seeded_forms(seed):
    # the three form shapes of the jring-generic benchmark, with count
    # seeded rational terms off the Fermat support
    rng = random.Random(seed)
    for nvars, degree, count in ((5, 3, 12), (6, 3, 4), (4, 4, 4)):
        monos = [m for m in monomials_of_degree(nvars, degree)
                 if max(m) < degree]
        yield nvars, degree, {
            m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 9))
            for m in rng.sample(monos, count)}


def _every_ideal_row(ring, k):
    # every row x^m * dF/dx_i of slice k over its columns, none left out
    columns = ring.quotient_basis(k).column_index
    shifts = monomials_of_degree(ring.nvars, k - ring.degree + 1)
    return [{columns[tuple(map(add, e, m))]: c
             for e, c in ring.polynomial.partial(i).terms.items()}
            for i in range(ring.nvars) for m in shifts]


def _slice_keeps_the_span(form, k, monkeypatch):
    # the rows that _build_slice hands to rref, against every row: the
    # same rref, the pivots the slice keeps, and a union of the same rank
    kept = []

    def recording(rows, field):
        kept.extend(rows)
        return rref(rows, field)

    ring = HypersurfaceRing(_form(*form))
    with monkeypatch.context() as patch:
        patch.setattr(jacobian, "rref", recording)
        pivots = ring.quotient_basis(k).pivots
    every = _every_ideal_row(ring, k)
    want = rref(every, FRACTION_FIELD)
    same = (rref(kept, FRACTION_FIELD) == want and dict(want) == pivots
            and rank(kept + every) == len(want))
    return same, len(every) - len(kept)


def _socle_degree(form):
    nvars, degree, _ = form
    return nvars * (degree - 2)


def test_koszul_rows_leave_every_slice_unchanged(monkeypatch):
    forms = FORMS + [f for seed in (1, 2) for f in _seeded_forms(seed)]
    skipped = 0
    for form in forms:
        for k in range(_socle_degree(form) + 1):
            same, dropped = _slice_keeps_the_span(form, k, monkeypatch)
            assert same, (form[:2], k)
            skipped += dropped
    assert skipped > 0


def test_a_criterion_that_skips_one_needed_row_is_caught(monkeypatch):
    # the mutant also skips x^m * dF/dx_1 at m = LT(dF/dx_1), which no
    # LT(dF/dx_0) divides: the j <= i slip of the j < i criterion
    form = FORMS[0]
    lead = max(_form(*form).partial(1).terms)
    koszul_row = jacobian._koszul_row

    def mutant(leads, m):
        return koszul_row(leads, m) or (len(leads) == 1 and m == lead)

    monkeypatch.setattr(jacobian, "_koszul_row", mutant)
    caught = [k for k in range(_socle_degree(form) + 1)
              if not _slice_keeps_the_span(form, k, monkeypatch)[0]]
    assert caught


def _main(args):
    if args not in ([], ["--check"]):
        print("usage: test_jring_generic_golden.py [--check]", file=sys.stderr)
        return 2
    text = golden_text()
    if args:
        same = text == _read(GOLDEN)
        print("jring_generic.json %s" % ("matches" if same else "mismatch"))
        return 0 if same else 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
