"""Exception types raised by grifcalc.

Everything derives from GrifcalcError so callers (and the CLI) can catch
domain errors in one place and map them to exit codes.  read_only is the
__setattr__ of the library's frozen records.
"""


def read_only(record, name, value):
    """Refuse assignment: a frozen record sets its fields once, in
    __init__, through object.__setattr__."""
    raise AttributeError("cannot assign to field %r of a %s"
                         % (name, type(record).__name__))


class GrifcalcError(Exception):
    """Base class for all grifcalc domain errors."""


class ZeroDenominator(GrifcalcError):
    """A scalar was constructed with denominator equal to the zero polynomial."""


class DivisionByZero(GrifcalcError):
    """Division of a scalar by the zero scalar."""


class ParseError(GrifcalcError):
    """A scalar expression string did not match the expression grammar."""


class UnboundParameter(GrifcalcError):
    """A specialization assignment is missing one of the scalar's parameters."""


class PoleAtSpecialization(GrifcalcError):
    """The denominator vanishes at the requested specialization point."""


class DegreeMismatch(GrifcalcError):
    """Operands have incompatible degrees or variable counts."""


class NotReducedMonomial(GrifcalcError):
    """A monomial has an exponent outside the reduced range for the ring."""


class InvalidCharacter(GrifcalcError):
    """A character tuple violates the sum condition or entry range."""


class NotInKernel(GrifcalcError):
    """A tensor fails the multiplication-map kernel membership check."""


class NotIsomorphism(GrifcalcError):
    """A pairing matrix required to be invertible has zero determinant."""


class DegenerateDenominator(GrifcalcError):
    """A coefficient pair (0, 0) makes the associated value undefined."""


class OutOfRange(GrifcalcError):
    """An argument lies outside the supported range for the operation."""
