"""Error taxonomy shared across the package.

Every domain failure raises a subclass of InssError so callers (and the
command-line layer) can tell domain errors apart from plain bugs.
"""

__all__ = [
    "InssError",
    "OutOfRange",
    "PrecisionLoss",
    "ConstraintViolation",
    "UniverseMismatch",
    "DuplicateParameter",
    "DuplicateElement",
    "EmptyParameterIntersection",
    "UnknownParameter",
    "EmptyParameterSet",
    "EmptyUniverse",
    "ParseError",
    "ReferenceMismatch",
    "UnknownLaw",
]


class InssError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfRange(InssError):
    """A grade value falls outside the closed interval [0, 1]."""


class PrecisionLoss(InssError):
    """A grade value cannot be represented in ten-thousandths exactly."""


class ConstraintViolation(InssError):
    """A grade triple breaks one of the joint validity bounds."""


class UniverseMismatch(InssError):
    """Two soft sets were combined despite having different universes."""


class DuplicateParameter(InssError):
    """A soft set declares the same parameter (or parameter label) twice."""


class DuplicateElement(InssError):
    """A universe lists the same element id twice."""


class EmptyParameterIntersection(InssError):
    """Intersection was asked for on sets with no shared parameter."""


class UnknownParameter(InssError):
    """A parameter was named that the soft set does not carry."""


class EmptyParameterSet(InssError):
    """A decision was asked for with no parameters chosen."""


class EmptyUniverse(InssError):
    """A decision was asked for on a soft set with no objects."""


class ParseError(InssError):
    """A document (or a grade literal) could not be parsed."""


class ReferenceMismatch(InssError):
    """A reference matrix does not line up with the computed one."""


class UnknownLaw(InssError):
    """The law checker was asked about an identity it does not know."""


# Error messages quote at most this many characters of an offending value.
QUOTE_LIMIT = 80


def clipped(text: str, limit: int = QUOTE_LIMIT) -> str:
    """``text`` for an error message: whole when short, else its first
    ``limit`` characters followed by "..."."""
    return text if len(text) <= limit else text[:limit] + "..."
