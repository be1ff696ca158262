"""Exception hierarchy for domain errors."""


class MonoinvError(Exception):
    """Base class for all library errors; exit_code is the CLI's exit code
    for the class (2: an invalid input), prefix the lead of its error line."""

    exit_code = 2
    prefix = ""


class ParseError(MonoinvError, ValueError):
    """The input could not be read: a file, a spec or a number."""

    exit_code = 1


class SpecError(MonoinvError):
    """The input parses but does not describe a valid measure."""


class NonMonotone(MonoinvError):
    """A negative slope or a downward jump."""


class ConstantFunction(MonoinvError):
    """The everywhere-constant class, which is excluded."""


class UnorderedBreakpoints(MonoinvError):
    """Knots not strictly increasing inside the regular domain."""


class EmptyInterval(MonoinvError):
    """An operation received an empty interval."""


class ZeroMeasure(MonoinvError):
    """The zero measure has no distribution function."""


class AnchorOutsideCarrier(MonoinvError):
    """Anchor point for a distribution function must lie in the carrier."""


class NotAbsolutelyContinuous(MonoinvError):
    """The measure has an atomic part, so no density exists."""


class VersionAmbiguous(MonoinvError):
    """An atom sits on a jump of the map; the pushforward depends on the version."""


class NotLocallyFinite(MonoinvError):
    """The result would put infinite mass on a compact set."""


class CarrierMismatch(MonoinvError):
    """Carriers of the operands are incompatible."""


class AmbiguousComposition(MonoinvError):
    """A flat maps onto a knot of the step function; the composed class is not determined."""


class PreconditionFailed(MonoinvError):
    """A stated precondition of the operation does not hold."""


class QfNotAbsolutelyContinuous(MonoinvError):
    """The generalized inverse has an interior jump; no quantile density exists."""

    exit_code = 4


class InternalInconsistency(MonoinvError):
    """Independent characterizations that must agree disagreed; implementation bug."""

    exit_code = 6
    prefix = "internal consistency check failed (a bug in monoinv): "


class UnknownLaw(MonoinvError):
    """Law identifier not in the registry."""

    exit_code = 1
