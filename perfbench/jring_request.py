"""One jring-generic request: graded slices of non-Fermat forms.

    python3 perfbench/jring_request.py SPEC.json

SPEC.json holds a list of forms, each {"nvars", "degree", "terms"} with
terms as [exponents, "p/q"] pairs.  For every form the request builds each
graded slice R^0 .. R^socle of its Jacobian ring through the public
library API (the generic elimination path, since no form is Fermat),
checks every dimension against the Fermat slice dimension
(bounded_slice_dimension: the Hilbert function of a smooth form depends
only on degree and variable count), and checks that the middle socle
pairing R^j x R^(socle-j) -> R^socle has a nonzero determinant.  It
prints one JSON line and exits 0 only when every check holds.
"""

import json
import sys
from fractions import Fraction

from grifcalc.hodge import bounded_slice_dimension
from grifcalc.jacobian import (HomogeneousPolynomial, HypersurfaceRing,
                               determinant, pairing_matrix)


def check_form(spec):
    nvars, degree = spec["nvars"], spec["degree"]
    poly = HomogeneousPolynomial.from_terms(
        nvars, {tuple(e): Fraction(c) for e, c in spec["terms"]},
        degree=degree)
    ring = HypersurfaceRing(poly)
    socle = ring.socle_degree
    dims = [ring.quotient_basis(k).dimension for k in range(socle + 1)]
    expected = [bounded_slice_dimension(nvars, k, degree - 2)
                for k in range(socle + 1)]
    j = socle // 2
    unit = HomogeneousPolynomial.monomial(nvars, (0,) * nvars)
    det = determinant(pairing_matrix(ring, unit, j, socle - j))
    return {"nvars": nvars, "degree": degree, "dims": dims,
            "det": str(det),
            "ok": dims == expected and not det.is_zero()}


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        forms = json.load(fh)
    results = [check_form(spec) for spec in forms]
    print(json.dumps({"forms": results}, sort_keys=True))
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
