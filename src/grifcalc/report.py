"""End-to-end verification report.

full_report runs a fixed sequence of checks over the cubic-sevenfold
computations: middle Hodge numbers by two independent methods, the
character census, injectivity of multiplication by the symbolic
quadric, the socle pairing matrix with its determinant and the
invariant value it produces, kernel membership, kernel-spanning at a
configurable number of variables, independence ranks, and odd-cohomology
vanishing for the auxiliary complete intersections.

Check ids are stable identifiers; statuses are "pass", "fail", "skip",
or "flag" ("flag" records a discrepancy against an external reference
value without failing the run).  Timings are wall-clock seconds per
check and can be zeroed for byte-reproducible output.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from ._version import __version__
from .characters import (Character, enumerate_type, galois_orbit,
                         orbit_partition, rational_class)
from .hodge import CIData, ci_prim_hodge, hypersurface_prim_hodge, \
    jacobian_vanishing_check
from .invariant import (NVARS, delta_nu, distinguished_tensor,
                        distinguished_triple, independence_rank, iso_det,
                        iso_matrix, rho_check)
from .jacobian import HypersurfaceRing
from .mulkernel import mu_apply, span_equals_kernel
from .scalar import parse, scalar_to_string

SEVENFOLD_MIDDLE = (0, 0, 1, 84, 84, 1, 0, 0)
SIXFOLD_MIDDLE = (0, 0, 8, 70, 8, 0, 0)
H33_REFERENCE = 36

# socle pairing of the symbolic quadric against the distinguished cubic,
# canonical renderings, upper triangle only (the matrix is symmetric)
PAIRING_REFERENCE = {
    (0, 1): "a",
    (2, 3): "C*a",
    (2, 4): "D*b",
    (3, 5): "B*b",
    (4, 5): "A*a",
    (6, 7): "b*h+a",
}
DETERMINANT_FACTORED = "a^2*(a+b*h)^2*(a^2*A*C-b^2*B*D)^2"
INVARIANT_VALUE = "a*b/(a+b*h)"

DEFAULT_PAIRS = tuple((a, 1) for a in range(1, 9))


@dataclass
class CheckResult(object):
    check_id: str
    status: str
    details: dict

    def to_json(self):
        return asdict(self)


@dataclass
class ReportDocument(object):
    tool_version: str
    checks: list
    timings: dict

    @property
    def failed(self):
        return any(c.status == "fail" for c in self.checks)

    def to_json(self):
        return asdict(self)


@dataclass
class ReportOptions(object):
    kermu_vars: int = 6
    pairs: tuple = DEFAULT_PAIRS
    seed: int = 0
    skip: tuple = ()
    stable: bool = False
    cache: object = None


def _skipped(check_id, skip_tokens):
    group = check_id.split(".", 1)[0]
    return check_id in skip_tokens or group in skip_tokens


def _check_cubic_middle(m, expected):
    """Middle primitive Hodge numbers of the cubic m-fold, by the residue
    and the series method."""
    residue = hypersurface_prim_hodge(3, m)
    series = ci_prim_hodge(CIData((3,), m))
    ok = residue.values == expected and series.values == expected
    return ok, {
        "residue_method": list(residue.values),
        "series_method": list(series.values),
        "expected": list(expected),
    }


def _check_h33_reference(options):
    prim = hypersurface_prim_hodge(3, 6).values[3]
    total = prim + 1  # middle of an even-dimensional variety keeps h^{m/2,m/2} of the ambient space
    orbits = len(orbit_partition(enumerate_type(3, 8, (3, 3))))
    details = {
        "reference_value": H33_REFERENCE,
        "computed_primitive": prim,
        "computed_total": total,
        "difference": total - H33_REFERENCE,
        "type33_orbit_count": orbits,
    }
    # the computed value disagrees with the reference by exactly the Galois
    # orbit count; any other difference means one of the numbers moved
    return ("flag" if total - H33_REFERENCE == orbits else False), details


def _census_payload():
    chars = enumerate_type(3, 8, (3, 3))
    orbits = orbit_partition(chars)
    alpha = rational_class(galois_orbit(Character(3, (2, 2, 2, 2, 1, 1, 1, 1))))
    beta = rational_class(galois_orbit(Character(3, (2, 2, 2, 1, 2, 1, 1, 1))))
    return {
        "character_count": len(chars),
        "orbit_count": len(orbits),
        "orbit_sizes": sorted({len(o) for o in orbits}),
        "pinned_classes": [str(alpha), str(beta)],
    }


def _cached(cache, op, params, compute):
    """compute() as a JSON payload, read from the cache when it holds one
    for (op, params) and written to it otherwise (cache may be None)."""
    payload = None if cache is None else cache.get(op, params)
    if payload is None:
        payload = compute()
        if cache is not None:
            cache.put(op, params, payload)
    return payload


def _check_census(options):
    payload = _cached(options.cache, "fermat.census",
                      {"d": 3, "nvars": 8, "type": [3, 3]}, _census_payload)
    ok = (payload["character_count"] == 70 and payload["orbit_count"] == 35
          and payload["pinned_classes"] == [
              "A*x0*x1*x2*x3 + C*x4*x5*x6*x7",
              "B*x0*x1*x2*x4 + D*x3*x5*x6*x7"])
    return ok, payload


def _check_injective(options):
    triple = distinguished_triple()
    ok = rho_check(triple, seed=options.seed)
    return ok, {"rank_required": 8, "seed": options.seed, "injective": ok}


def _check_pairing_matrix(options):
    triple = distinguished_triple()
    matrix = iso_matrix(triple)
    rendered = {}
    for (i, j), v in matrix.entries.items():
        rendered[(i, j)] = scalar_to_string(v)
    expected = {}
    for (i, j), s in PAIRING_REFERENCE.items():
        expected[(i, j)] = s
        expected[(j, i)] = s
    ok = rendered == expected
    alt = iso_matrix(distinguished_triple(e_denominator="D"))
    details = {
        "nonzero_entries": len(rendered),
        "expected_nonzero_entries": 2 * len(PAIRING_REFERENCE),
        "entries": [[i, j, s] for (i, j), s in sorted(rendered.items())],
        "entry_6_7": rendered.get((6, 7)),
        "entry_6_7_alternate_quadric": scalar_to_string(alt.entries[(6, 7)]),
    }
    return ok, details


def _check_determinant(options):
    _, det = iso_det(distinguished_triple())
    target = parse(DETERMINANT_FACTORED)
    ok = det == target
    return ok, {
        "factored": DETERMINANT_FACTORED,
        "matches_expansion": ok,
        "vanishing_locus": "a=0, a+b*h=0, or a^2*A*C=b^2*B*D",
    }


def _check_invariant_value(options):
    triple = distinguished_triple()
    value = delta_nu(triple, distinguished_tensor())
    swapped = delta_nu(triple, distinguished_tensor(swap=True))
    target = parse(INVARIANT_VALUE)
    ok = value == target and swapped == target
    return ok, {
        "value": scalar_to_string(value),
        "swapped_value": scalar_to_string(swapped),
        "expected": INVARIANT_VALUE,
        "nonzero": not value.is_zero(),
    }


def _check_kernel_membership(options):
    ring = HypersurfaceRing.fermat(3, NVARS)
    ok = mu_apply(ring, distinguished_tensor()).is_zero()
    return ok, {"tensor": "x4*x5*x6/A (x) x3*x5*x7/B", "in_kernel": ok}


def kermu_payload(nvars, mode, cache):
    """span_equals_kernel(nvars, mode) as a JSON payload, through the cache
    (which may be None).  Both modes are exact; the params keep their
    "exact" and "prime" keys so that existing cache entries still match.
    """
    params = {"nvars": nvars, "mode": mode, "exact": True, "prime": None}
    return _cached(cache, "kermu." + mode, params,
                   lambda: span_equals_kernel(nvars, mode=mode).to_json())


def _check_kermu(options, mode):
    payload = kermu_payload(options.kermu_vars, mode, options.cache)
    return bool(payload["verdict"]), payload


def independence_payload(pairs):
    """independence_rank(pairs) as a JSON payload, every rational a
    string."""
    rank, relations = independence_rank(pairs)
    return {
        "pairs": [[str(a), str(b)] for a, b in pairs],
        "rank": rank,
        "relations": [[str(c) for c in rel] for rel in relations],
    }


def _check_independence(options):
    pairs = tuple(tuple(p) for p in options.pairs)
    payload = independence_payload(pairs)
    payload["independent"] = ok = payload["rank"] == len(pairs)
    return ok, payload


def _check_vanishing(options):
    per_degree = {}
    ok = True
    for e in range(2, 7):
        ci = CIData((3, e, e), 5)
        vanishes = jacobian_vanishing_check(ci, 4)
        per_degree[str(e)] = vanishes
        ok = ok and vanishes
    return ok, {"degrees": "(3, e, e), dimension 5, k = 4",
                "vanishes": per_degree}


_CHECK_FUNCS = {
    "hodge.sevenfold-middle": lambda o: _check_cubic_middle(7, SEVENFOLD_MIDDLE),
    "hodge.sixfold-middle": lambda o: _check_cubic_middle(6, SIXFOLD_MIDDLE),
    "hodge.h33-reference-value": _check_h33_reference,
    "fermat.census": _check_census,
    "nl.e-multiplication-injective": _check_injective,
    "nl.pairing-matrix": _check_pairing_matrix,
    "nl.pairing-determinant": _check_determinant,
    "nl.invariant-value": _check_invariant_value,
    "nl.kernel-membership": _check_kernel_membership,
    "kermu.span": lambda o: _check_kermu(o, "span_rank"),
    "kermu.standardize": lambda o: _check_kermu(o, "standardize"),
    "independence.rank": _check_independence,
    "hodge.odd-cohomology-vanishing": _check_vanishing,
}

CHECK_ORDER = tuple(_CHECK_FUNCS)


def full_report(options=None):
    if options is None:
        options = ReportOptions()
    checks = []
    timings = {}
    for check_id in CHECK_ORDER:
        if _skipped(check_id, options.skip):
            checks.append(CheckResult(check_id, "skip", {}))
            timings[check_id] = 0.0
            continue
        start = time.perf_counter()
        try:
            ok, details = _CHECK_FUNCS[check_id](options)
        except Exception as exc:  # a crashed check is a failed check
            checks.append(CheckResult(check_id, "fail",
                                      {"error": "%s: %s" % (type(exc).__name__, exc)}))
            timings[check_id] = round(time.perf_counter() - start, 6)
            continue
        elapsed = time.perf_counter() - start
        status = "flag" if ok == "flag" else "pass" if ok else "fail"
        checks.append(CheckResult(check_id, status, details))
        timings[check_id] = round(elapsed, 6)
    if options.stable:
        timings = {k: 0.0 for k in timings}
    return ReportDocument(__version__, checks, timings)
