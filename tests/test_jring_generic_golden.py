"""Golden for the generic (non-Fermat) Jacobian-ring path.

The CLI's jring command always builds a Fermat ring, so the CLI goldens
never reach the generic elimination.  Three fixed perturbed Fermat forms
do: for each, every graded slice's quotient basis and pivot columns, the
normal forms of a fixed set of monomials, and the middle socle-pairing
determinant are compared byte for byte with tests/data/jring_generic.json.
"""

import json
import os
from fractions import Fraction

from grifcalc.jacobian import (HomogeneousPolynomial, HypersurfaceRing,
                               determinant, monomials_of_degree,
                               pairing_matrix)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "jring_generic.json")

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


def test_generic_path_matches_golden_bytes():
    # captured before the rational elimination moved to integer rows
    with open(GOLDEN, encoding="utf-8") as fh:
        assert golden_text() == fh.read()
