"""grifcalc: exact verification of Hodge-theoretic computations on
cubic hypersurfaces, built on a parametrized rational function field.

The package computes graded Jacobian rings, primitive Hodge numbers by
two independent methods, Fermat character censuses with their Galois
orbits and rational classes, the socle pairing matrix of a distinguished
cubic against a symbolic quadric together with the invariant values it
produces, and certificate-backed kernel-spanning verdicts for the
multiplication map on the cubic Fermat ring.  Everything is exact: no
floating point enters any verdict.

Names load on first use (PEP 562): ``import grifcalc`` loads only the
version, and the first ``grifcalc.X`` or ``from grifcalc import X`` imports
the module that defines X, so a program pays only for the modules it uses.
"""

from importlib import import_module

from ._version import __version__

# the defining module of every exported name, in the order of __all__
_EXPORTS = {
    "cache": ("Cache",),
    "characters": ("Character", "GaloisOrbit", "SymbolicClass",
                   "character_monomial", "enumerate_type", "galois_orbit",
                   "hodge_type", "monomial_character", "orbit_partition",
                   "rational_class"),
    "errors": ("DegenerateDenominator", "DegreeMismatch", "DivisionByZero",
               "GrifcalcError", "InvalidCharacter", "NotInKernel",
               "NotIsomorphism", "NotReducedMonomial", "OutOfRange",
               "ParseError", "PoleAtSpecialization", "UnboundParameter",
               "ZeroDenominator"),
    "hodge": ("CIData", "HodgeVector", "ci_prim_hodge",
              "euler_characteristic", "hypersurface_prim_hodge",
              "jacobian_vanishing_check"),
    "invariant": ("TripleData", "delta_nu", "independence_rank", "iso_det",
                  "iso_matrix", "distinguished_triple", "rho_check"),
    "jacobian": ("GradedBasis", "HomogeneousPolynomial", "HypersurfaceRing",
                 "LinearMap", "TensorSum", "determinant", "mult_map",
                 "pairing_matrix", "rank_kernel"),
    "mulkernel": ("Certificate", "RankOneGenerator", "SpanReport",
                  "StandardTensor", "mu_apply", "rank_one_generators",
                  "span_equals_kernel", "standardize", "tensor_in_kernel",
                  "verify_certificate"),
    "report": ("CheckResult", "ReportDocument", "ReportOptions",
               "full_report"),
    "scalar": ("Scalar", "parse", "scalar_to_string"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value
