"""Command-line interface.

Subcommands: jring (graded Jacobian-ring queries), hodge (primitive
Hodge numbers and Euler characteristics), fermat (character census),
nl (socle pairing matrix, determinant, invariant values, independence),
kermu (kernel-spanning verification), independence (alias for
nl independence), report (the full check sequence).

Exit codes: 0 success, 1 a computation ran and the verified property
failed, 2 usage or domain error.  run_command returns (exit_code,
output) without printing; main prints and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import time
from fractions import Fraction
from math import gcd

from ._version import __version__
from .cache import Cache
from .characters import enumerate_type, orbit_partition, rational_class
from .errors import GrifcalcError, OutOfRange
from .hodge import MAX_HYPERSURFACE_SIZE, CIData, bounded_slice_dimension, \
    ci_prim_hodge, euler_characteristic, hypersurface_prim_hodge
from .invariant import (MAX_PAIRS, delta_nu, distinguished_tensor,
                        distinguished_triple, iso_det, iso_matrix)
from .jacobian import (HomogeneousPolynomial, HypersurfaceRing,
                       monomial_string, pairing_matrix)
from .mulkernel import check_nvars
from .report import (CHECK_ORDER, DEFAULT_PAIRS, DETERMINANT_FACTORED,
                     ReportOptions, full_report, independence_payload,
                     kermu_payload)
from .scalar import parse as parse_scalar, scalar_to_string


class UsageError(Exception):
    pass


class _HelpExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token as a value only if it starts with "-" and
        # looks like a number; widen that to "-" then a digit, so that
        # --pairs "-2,1;1,1" and --a -1/2 parse.  No option name here
        # starts that way.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        if status == 0:
            raise _HelpExit()
        raise UsageError(message or "exit %d" % status)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _degree_list(text):
    try:
        degrees = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not degrees or any(d < 1 for d in degrees):
        raise argparse.ArgumentTypeError("degrees must be positive")
    return degrees


def _type_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected p,q")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers p,q")


def _pair_list(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError("expected a;-separated list of a,b pairs")
        try:
            pair = (Fraction(parts[0]), Fraction(parts[1]))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError("pair entries must be rational numbers")
        if not any(pair):
            raise argparse.ArgumentTypeError("a pair (0, 0) has no defined value")
        pairs.append(pair)
    if not pairs:
        raise argparse.ArgumentTypeError("no pairs given")
    if len(pairs) > MAX_PAIRS:
        raise argparse.ArgumentTypeError("at most %d pairs, got %d"
                                         % (MAX_PAIRS, len(pairs)))
    return tuple(pairs)


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational number")


def _polynomial(text):
    try:
        return HomogeneousPolynomial.from_json(json.loads(text))
    except (KeyError, TypeError):
        raise argparse.ArgumentTypeError(
            "expected JSON {nvars, degree, terms: [{exps, coeff}]}")


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    common.add_argument("--cache", metavar="DIR", default=None,
                        help="result cache directory")
    common.add_argument("--seed", type=_nonneg_int, default=0,
                        help="seed for randomized specializations")

    top = _Parser(prog="grifcalc",
                  description="exact verification of cubic sevenfold computations")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    jring = sub.add_parser("jring", help="graded Jacobian ring queries")
    jsub = jring.add_subparsers(dest="action", required=True)
    jb = jsub.add_parser("basis", parents=[common])
    jb.add_argument("--vars", type=_positive_int, required=True)
    jb.add_argument("--degree", type=_positive_int, required=True,
                    help="degree of the Fermat form")
    jb.add_argument("--k", type=_nonneg_int, required=True,
                    help="graded slice to enumerate")
    jn = jsub.add_parser("nf", parents=[common])
    jn.add_argument("--vars", type=_positive_int, required=True)
    jn.add_argument("--degree", type=_positive_int, required=True)
    jn.add_argument("--poly", type=_polynomial, required=True,
                    help="polynomial as JSON {nvars, degree, terms}")
    jp = jsub.add_parser("pairing", parents=[common])
    jp.add_argument("--vars", type=_positive_int, required=True)
    jp.add_argument("--degree", type=_positive_int, required=True)
    jp.add_argument("--poly", type=_polynomial, required=True)
    jp.add_argument("--j", type=_nonneg_int, required=True)
    jp.add_argument("--k", type=_nonneg_int, required=True)

    hodge = sub.add_parser("hodge",
                           help="Hodge numbers and Euler characteristics")
    hsub = hodge.add_subparsers(dest="action", required=True)
    hh = hsub.add_parser("hypersurface", parents=[common])
    hh.add_argument("--degree", type=_positive_int, required=True)
    hh.add_argument("--dim", type=_positive_int, required=True)
    hc = hsub.add_parser("ci", parents=[common])
    hc.add_argument("--degrees", type=_degree_list, required=True)
    hc.add_argument("--dim", type=_nonneg_int, required=True)

    fermat = sub.add_parser("fermat",
                            help="character census for Fermat hypersurfaces")
    fsub = fermat.add_subparsers(dest="action", required=True)
    fc = fsub.add_parser("classes", parents=[common])
    fc.add_argument("--degree", type=_positive_int, required=True)
    fc.add_argument("--vars", type=_positive_int, required=True)
    fc.add_argument("--type", type=_type_pair, required=True, dest="ptype")
    fc.add_argument("--orbits", action="store_true",
                    help="group characters into Galois orbits with classes")

    nl = sub.add_parser("nl", help="socle pairing and invariant values")
    nsub = nl.add_subparsers(dest="action", required=True)
    for name in ("matrix", "det", "deltanu"):
        p = nsub.add_parser(name, parents=[common])
        p.add_argument("--a", type=_fraction, default=None)
        p.add_argument("--b", type=_fraction, default=None)
        p.add_argument("--symbolic", action="store_true",
                       help="keep a, b as indeterminates")
    ni = nsub.add_parser("independence", parents=[common])
    ni.add_argument("--pairs", type=_pair_list, required=True,
                    metavar="A1,B1;A2,B2;...")

    kermu = sub.add_parser("kermu", help="kernel-spanning verification for mu")
    ksub = kermu.add_subparsers(dest="action", required=True)
    kv = ksub.add_parser("verify", parents=[common])
    kv.add_argument("--vars", type=_positive_int, required=True)
    kv.add_argument("--method", choices=("span", "standardize"),
                    default="span")

    indep = sub.add_parser("independence", parents=[common],
                           help="alias for nl independence")
    indep.add_argument("--pairs", type=_pair_list, required=True)

    rep = sub.add_parser("report", parents=[common],
                         help="run the full check sequence")
    rep.add_argument("--kermu-vars", type=_positive_int, default=6)
    rep.add_argument("--skip", action="append", default=[],
                     metavar="GROUP", help="skip checks by id or group")
    rep.add_argument("--stable", action="store_true",
                     help="zero out timings for reproducible output")
    rep.add_argument("--pairs", type=_pair_list, default=DEFAULT_PAIRS)

    return top


def _triple_from_args(args):
    if args.symbolic or (args.a is None and args.b is None):
        return distinguished_triple()
    a = args.a if args.a is not None else Fraction(1)
    b = args.b if args.b is not None else Fraction(1)
    return distinguished_triple(a, b)


# The largest Fermat ring and slices a jring or fermat command builds.  A
# slice is enumerated monomial by monomial, each tuple filled once from one
# exponent list, and pairing takes one normal form per product of a j-slice
# and a k-slice monomial; 20,000 of either cost well under a second, and a
# census lists one character per slice monomial.  The ring itself holds
# nvars exponent tuples of nvars entries, and its degree is bounded as for
# hypersurfaces, which keeps the slice count itself cheap.
MAX_JRING_VARS = 32
MAX_JRING_MONOMIALS = 20_000


def _check_slice_size(args):
    """Raise OutOfRange before building a ring or slice above the bounds."""
    nvars, degree = getattr(args, "vars"), args.degree
    command = "%s %s" % (args.command, args.action)
    if nvars > MAX_JRING_VARS or degree > MAX_HYPERSURFACE_SIZE:
        raise OutOfRange("%s needs at most %d variables and degree at most %d"
                         % (command, MAX_JRING_VARS, MAX_HYPERSURFACE_SIZE))
    cap = degree - 2
    if args.action == "classes":
        k = (args.ptype[1] + 1) * degree - nvars
        count = bounded_slice_dimension(nvars, k, cap)
        if args.orbits:
            # each character's orbit lists its multiples by the units mod d
            count *= sum(gcd(t, degree) == 1 for t in range(1, degree))
    elif args.action == "basis":
        count = bounded_slice_dimension(nvars, args.k, cap)
    elif args.action == "pairing":
        dj = bounded_slice_dimension(nvars, args.j, cap)
        dk = bounded_slice_dimension(nvars, args.k, cap)
        count = max(dj, dk, dj * dk)
    else:
        return  # a Fermat normal form builds no slice
    if count > MAX_JRING_MONOMIALS:
        raise OutOfRange("%s would build %d monomials, more than %d"
                         % (command, count, MAX_JRING_MONOMIALS))


def _cmd_jring(args):
    _check_slice_size(args)
    ring = HypersurfaceRing.fermat(args.degree, getattr(args, "vars"))
    if args.action == "basis":
        basis = ring.quotient_basis(args.k)
        payload = {"dimension": basis.dimension,
                   "monomials": [monomial_string(e) for e in basis.basis]}
        if args.json:
            return 0, _dump(payload)
        lines = ["dimension %d" % basis.dimension]
        lines.extend(payload["monomials"])
        return 0, "\n".join(lines)
    if args.action == "nf":
        result = ring.normal_form(args.poly)
        return 0, _dump(result.to_json()) if args.json else str(result)
    matrix = pairing_matrix(ring, args.poly, args.j, args.k)
    payload = matrix.to_json()
    if args.json:
        return 0, _dump(payload)
    lines = ["%d x %d" % (payload["rows"], payload["cols"])]
    for i, j, v in payload["entries"]:
        lines.append("(%d, %d) = %s" % (i, j, v))
    return 0, "\n".join(lines)


def _cmd_hodge(args):
    if args.action == "hypersurface":
        hv = hypersurface_prim_hodge(args.degree, args.dim)
        if args.json:
            return 0, _dump({"prim": hv.to_json()})
        return 0, "primitive middle Hodge numbers: %s" % (list(hv.values),)
    ci = CIData(args.degrees, args.dim)
    hv = ci_prim_hodge(ci)
    chi = euler_characteristic(ci)
    if args.json:
        return 0, _dump({"prim": hv.to_json(), "euler": chi})
    return 0, ("primitive middle Hodge numbers: %s\neuler characteristic: %d"
               % (list(hv.values), chi))


def _cmd_fermat(args):
    if args.degree < 3:
        raise UsageError("character census needs degree >= 3")
    _check_slice_size(args)
    chars = enumerate_type(args.degree, getattr(args, "vars"), args.ptype)
    if not args.orbits:
        payload = {"character_count": len(chars),
                   "characters": [list(c.entries) for c in chars]}
        if args.json:
            return 0, _dump(payload)
        lines = ["%d characters of type (%d, %d)"
                 % (len(chars), args.ptype[0], args.ptype[1])]
        lines.extend(str(list(c.entries)) for c in chars)
        return 0, "\n".join(lines)
    orbits = orbit_partition(chars)
    described = []
    for orb in orbits:
        entry = {"members": [list(c.entries) for c in orb.members]}
        try:
            entry["class"] = str(rational_class(orb))
        except GrifcalcError:
            entry["class"] = None  # orbit mixes cohomological degrees
        described.append(entry)
    payload = {"character_count": len(chars), "orbit_count": len(orbits),
               "orbits": described}
    if args.json:
        return 0, _dump(payload)
    lines = ["%d characters in %d orbits" % (len(chars), len(orbits))]
    for entry in described:
        lines.append("%s  ~  %s" % (entry["members"], entry["class"]))
    return 0, "\n".join(lines)


def _cmd_nl(args):
    if args.action == "independence":
        payload = independence_payload(args.pairs)
        if args.json:
            return 0, _dump(payload)
        lines = ["rank %d of %d values" % (payload["rank"], len(args.pairs))]
        for rel in payload["relations"]:
            lines.append("relation: " + ", ".join(rel))
        return 0, "\n".join(lines)

    triple = _triple_from_args(args)
    if args.action == "matrix":
        matrix = iso_matrix(triple)
        payload = matrix.to_json()
        if args.json:
            return 0, _dump(payload)
        lines = ["%d x %d pairing matrix, %d nonzero entries"
                 % (payload["rows"], payload["cols"], len(payload["entries"]))]
        for i, j, v in payload["entries"]:
            lines.append("(%d, %d) = %s" % (i, j, v))
        return 0, "\n".join(lines)
    if args.action == "det":
        _, det = iso_det(triple)
        if args.symbolic:
            if det != parse_scalar(DETERMINANT_FACTORED):
                return 1, ("determinant %s does not match the factored form %s"
                           % (scalar_to_string(det), DETERMINANT_FACTORED))
            out = DETERMINANT_FACTORED
        else:
            out = scalar_to_string(det)
        return 0, _dump({"det": out}) if args.json else out
    # deltanu
    value = delta_nu(triple, distinguished_tensor())
    out = scalar_to_string(value)
    return 0, _dump({"value": out}) if args.json else out


def _cmd_kermu(args):
    nvars = getattr(args, "vars")
    mode = "span_rank" if args.method == "span" else "standardize"
    start = time.perf_counter()
    # --cache beats GRIFCALC_CACHE beats .grifcalc-cache/
    payload = kermu_payload(nvars, mode, Cache(args.cache))
    elapsed = round(time.perf_counter() - start, 6)
    verdict = bool(payload["verdict"])
    out = dict(payload)
    out["elapsed"] = elapsed
    code = 0 if verdict else 1
    if args.json:
        return code, _dump(out)
    lines = ["mu: R3 x R3 -> R6 with %d variables" % nvars,
             "dim R3 = %d, dim R6 = %d, kernel dimension %d"
             % (out["dim_r3"], out["dim_r6"], out["kernel_dim"]),
             "mode %s, verdict %s, %.3fs" % (mode, verdict, elapsed)]
    if mode == "standardize":
        lines.append("standardized %d vectors with %d certificate moves"
                     % (out["standardized_vectors"], out["certificate_moves"]))
    return code, "\n".join(lines)


def _cmd_report(args):
    # an out-of-range kermu size is a usage error, not a failed kermu check
    check_nvars(args.kermu_vars)
    groups = tuple(dict.fromkeys(c.split(".", 1)[0] for c in CHECK_ORDER))
    for token in args.skip:
        if token not in CHECK_ORDER and token not in groups:
            raise UsageError("unknown --skip %r: expected a check id or one "
                             "of the groups %s" % (token, ", ".join(groups)))
    options = ReportOptions(
        kermu_vars=args.kermu_vars,
        pairs=args.pairs,
        seed=args.seed,
        skip=tuple(args.skip),
        stable=args.stable,
        cache=Cache(args.cache),
    )
    doc = full_report(options)
    code = 1 if doc.failed else 0
    if args.json:
        return code, _dump(doc.to_json())
    width = max(len(c.check_id) for c in doc.checks)
    lines = ["grifcalc %s" % doc.tool_version]
    for c in doc.checks:
        lines.append("%-*s  %s" % (width, c.check_id, c.status.upper()))
    lines.append("overall: %s" % ("FAIL" if doc.failed else "OK"))
    return code, "\n".join(lines)


_DISPATCH = {
    "jring": _cmd_jring,
    "hodge": _cmd_hodge,
    "fermat": _cmd_fermat,
    "nl": _cmd_nl,
    "kermu": _cmd_kermu,
    "report": _cmd_report,
}


def run_command(argv):
    """Parse and execute; returns (exit_code, output text)."""
    parser = _build_parser()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            args = parser.parse_args(argv)
            if args.command == "independence":
                args.action = "independence"
                args.symbolic = False
                return _cmd_nl(args)
            return _DISPATCH[args.command](args)
    except _HelpExit:
        return 0, buf.getvalue().rstrip("\n")
    except UsageError as exc:
        return 2, "error: %s" % exc
    except GrifcalcError as exc:
        return 2, "error: %s" % exc
    except (ValueError, OverflowError) as exc:
        return 2, "error: %s" % exc


def main(argv=None):
    code, output = run_command(sys.argv[1:] if argv is None else argv)
    if output:
        print(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
