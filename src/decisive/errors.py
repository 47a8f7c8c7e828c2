"""Exception and warning types shared across the package.

Parsers raise the structured errors below instead of bare ValueError so
callers (and the CLI) can map every failure to a location and an exit code.
"""

from __future__ import annotations


class DecisiveError(Exception):
    """Base class for all errors raised by this package."""


class DataQualityWarning(UserWarning):
    """Non-fatal data issue (degenerate inputs, clamped values, thin samples)."""


# --- trajectory / kinematics ------------------------------------------------

class EmptySpan(DecisiveError):
    """Trajectory too short for the requested operation."""


class InsufficientSamples(DecisiveError):
    """Not enough samples to differentiate or aggregate."""


class AllStationary(DecisiveError):
    """No sample moves fast enough for a speed-based metric."""


class RateTooLow(DecisiveError):
    """Sampling rate below the minimum required inside the evaluation window."""


class CollisionOutsideSpan(DecisiveError):
    """Annotated collision time falls outside the trajectory time span."""


# --- parsing ----------------------------------------------------------------

class ParseError(DecisiveError):
    """Base for structured file-parsing failures; carries a location (a line or a file).

    `source`, the file of a line, is filled in by the parser that read the file.
    """

    def __init__(self, message: str, location: str | int | None = None):
        super().__init__(message)
        self.message, self.location, self.source = message, location, None

    def __str__(self) -> str:
        where = ":".join(str(p) for p in (self.source, self.location) if p is not None)
        return f"{self.message} (at {where})" if where else self.message


class MissingColumn(ParseError):
    pass


class NonMonotonicTime(ParseError):
    pass


class NonNumericField(ParseError):
    pass


class UnknownCategory(ParseError):
    pass


class DanglingReference(ParseError):
    pass


class SchemaVersionUnsupported(ParseError):
    pass


class ScoreOutOfRange(ParseError):
    pass


class UnknownInstrument(ParseError):
    pass


class MissingDirection(ParseError):
    pass


class MalformedTuple(ParseError):
    pass


class UnknownTerm(ParseError):
    pass


class CyclicCascade(ParseError):
    pass


# --- statistics ---------------------------------------------------------------

class InvalidP0(DecisiveError):
    """Demonstration-test threshold must lie strictly inside (0, 1)."""


class TooFewValues(DecisiveError):
    """Quartile-based filtering needs at least four values."""


class EmptySample(DecisiveError):
    """An aggregate was requested over an empty collection."""


# --- navigation / field / mapping --------------------------------------------

class ZeroDuration(DecisiveError):
    pass


class MissingCategory(DecisiveError):
    """Trial lacks the categorical outcome needed for a distribution."""


class LengthMismatch(DecisiveError):
    pass


class CountOutOfRange(DecisiveError):
    pass


class TooFewFiducials(DecisiveError):
    """Global map error needs at least three matched fiducials."""


# --- autonomy ----------------------------------------------------------------

class UnmappedToken(DecisiveError):
    """Ordinal feature value has no rank in the feature's ordinal map."""


class NonPositiveValue(DecisiveError):
    """Weighted-product inputs must be strictly positive."""


class DomainError(DecisiveError):
    """Value outside the mathematical domain of the operation."""


class NoRuleFired(DecisiveError):
    """Every rule in the inference system evaluated to zero strength."""


class ZeroDenominator(DecisiveError):
    pass


class AllTestsMissing(DecisiveError):
    pass


class NonPositiveScore(DecisiveError):
    pass


# --- human factors -------------------------------------------------------------

class NonPositiveParam(DecisiveError):
    """Attention-allocation parameters must be strictly positive."""


class EmptyCondition(DecisiveError):
    pass


# --- reporting -----------------------------------------------------------------

class SchemaMismatch(DecisiveError):
    """Table rows do not conform to the declared columns."""


class EmptyData(DecisiveError):
    pass
