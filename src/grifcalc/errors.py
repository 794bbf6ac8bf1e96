"""Exception types raised by grifcalc, and Record, the base of its
frozen records.

Everything derives from GrifcalcError so callers (and the CLI) can catch
domain errors in one place and map them to exit codes.
"""

from operator import attrgetter


class Record(object):
    """A frozen record whose fields are its __slots__.  Record binds each
    field exactly once, by position or keyword; refuses assignment;
    compares (same class only) and hashes as the tuple of the fields; and
    prints Name(field=value, ...).  A record that checks its fields does
    so in its own __init__, which ends in Record.__init__(self, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # == and hash are closures per class over one attrgetter, one Python
        # frame each (attrgetter of one name gives the bare value, not a
        # 1-tuple); _setters are the slots' own setters, which pass over
        # the refusing __setattr__
        get = attrgetter(*cls.__slots__)
        key = get if len(cls.__slots__) > 1 else lambda record: (get(record),)
        cls._setters = tuple(cls.__dict__[name].__set__
                             for name in cls.__slots__)

        def __eq__(self, other):
            if other.__class__ is not cls:
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            # the first fields by position, the rest by keyword
            rest = self.__slots__[len(values):]
            if len(values) > len(setters) or named.keys() != set(rest):
                raise TypeError("%s takes exactly the fields %s" % (
                    type(self).__name__, ", ".join(self.__slots__)))
            values += tuple(named[name] for name in rest)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s"
                             % (name, type(self).__name__))

    def __reduce__(self):
        # copies and pickles rebuild through the validating __init__
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


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
