"""grifcalc: exact verification of Hodge-theoretic computations on
cubic hypersurfaces, built on a parametrized rational function field.

The package computes graded Jacobian rings, primitive Hodge numbers by
two independent methods, Fermat character censuses with their Galois
orbits and rational classes, the socle pairing matrix of a distinguished
cubic against a symbolic quadric together with the invariant values it
produces, and certificate-backed kernel-spanning verdicts for the
multiplication map on the cubic Fermat ring.  Everything is exact: no
floating point enters any verdict.
"""

from ._version import __version__
from .cache import Cache
from .characters import (Character, GaloisOrbit, SymbolicClass,
                         character_monomial, enumerate_type, galois_orbit,
                         hodge_type, monomial_character, orbit_partition,
                         rational_class)
from .errors import (DegenerateDenominator, DegreeMismatch, DivisionByZero,
                     GrifcalcError, InvalidCharacter, NotInKernel,
                     NotIsomorphism, NotReducedMonomial, OutOfRange,
                     ParameterInModP, ParseError, PoleAtSpecialization,
                     UnboundParameter, ZeroDenominator)
from .hodge import (CIData, HodgeVector, ci_prim_hodge, euler_characteristic,
                    hypersurface_prim_hodge, jacobian_vanishing_check)
from .invariant import (TripleData, delta_nu, independence_rank, iso_det,
                        iso_matrix, distinguished_triple, rho_check)
from .jacobian import (GradedBasis, HomogeneousPolynomial, HypersurfaceRing,
                       LinearMap, TensorSum, determinant, mult_map,
                       pairing_matrix, rank_kernel)
from .mulkernel import (Certificate, RankOneGenerator, SpanReport,
                        StandardTensor, mu_apply, rank_one_generators,
                        span_equals_kernel, standardize, tensor_in_kernel,
                        verify_certificate)
from .report import (CheckResult, ReportDocument, ReportOptions, full_report)
from .scalar import Scalar, parse, scalar_to_string

__all__ = [
    "__version__",
    "Cache",
    "Character", "GaloisOrbit", "SymbolicClass", "character_monomial",
    "enumerate_type", "galois_orbit", "hodge_type", "monomial_character",
    "orbit_partition", "rational_class",
    "DegenerateDenominator", "DegreeMismatch", "DivisionByZero",
    "GrifcalcError", "InvalidCharacter", "NotInKernel", "NotIsomorphism",
    "NotReducedMonomial", "OutOfRange", "ParameterInModP", "ParseError",
    "PoleAtSpecialization", "UnboundParameter", "ZeroDenominator",
    "CIData", "HodgeVector", "ci_prim_hodge", "euler_characteristic",
    "hypersurface_prim_hodge", "jacobian_vanishing_check",
    "TripleData", "delta_nu", "independence_rank", "iso_det", "iso_matrix",
    "distinguished_triple", "rho_check",
    "GradedBasis", "HomogeneousPolynomial", "HypersurfaceRing", "LinearMap",
    "TensorSum", "determinant", "mult_map", "pairing_matrix", "rank_kernel",
    "Certificate", "RankOneGenerator", "SpanReport", "StandardTensor",
    "mu_apply", "rank_one_generators", "span_equals_kernel", "standardize",
    "tensor_in_kernel", "verify_certificate",
    "CheckResult", "ReportDocument", "ReportOptions", "full_report",
    "Scalar", "parse", "scalar_to_string",
]
