"""Exception types shared across the package, and how a message echoes input."""

from __future__ import annotations

from typing import Callable

# A message echoes at most this many characters of an input value.
_ECHO_CHARS = 40


def echo(value: object, show: Callable[[object], str] = repr) -> str:
    """``show(value)`` for a message, cut after ``_ECHO_CHARS`` characters and
    marked ``…``. A string's repr is cut inside its quotes, so it still reads
    as a string, and a string of up to ``_ECHO_CHARS`` characters reads whole.
    """
    if show is repr and isinstance(value, str):
        return repr(value if len(value) <= _ECHO_CHARS else value[:_ECHO_CHARS] + "…")
    shown = show(value)
    return shown if len(shown) <= _ECHO_CHARS else shown[:_ECHO_CHARS] + "…"


class AdescopeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdescopeError, ValueError):
    """A domain invariant was violated (bad span, class mismatch, unknown id)."""


class ParseError(ValidationError):
    """A file could not be parsed; the message carries path and line context."""
