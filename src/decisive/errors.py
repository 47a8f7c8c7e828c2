"""Exception and warning types shared across the package.

An error's class decides only the CLI's exit code: a ParseError is an input
failure (exit 1) and names a file, or a file and line; any other DecisiveError
is a computation failure (exit 2). The message says what went wrong. Input
errors and the parsers' warnings name their place one way, with `located`.
"""

from __future__ import annotations


def located(message: str, source, location) -> str:
    """`message (at SOURCE:LOCATION)`, naming each part that is not None; `message` alone
    when neither is."""
    where = ":".join(str(p) for p in (source, location) if p is not None)
    return f"{message} (at {where})" if where else message


class DecisiveError(Exception):
    """A computation failure: the inputs parsed, but the metric cannot be computed."""


class DataQualityWarning(UserWarning):
    """Non-fatal data issue (degenerate inputs, clamped values, thin samples)."""


class ParseError(DecisiveError):
    """An input failure; carries a location (a line or a file).

    A parser raises it with a line number or no location, and `ingest`'s wrapper
    of every parser fills in `source`, the file it read. Code that checks a file
    outside the parsers gives that file as the location.
    """

    def __init__(self, message: str, location: str | int | None = None):
        super().__init__(message)
        self.message, self.location, self.source = message, location, None

    def __str__(self) -> str:
        return located(self.message, self.source, self.location)
