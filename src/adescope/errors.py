"""Exception types shared across the package, and how a message echoes input."""

from __future__ import annotations

from typing import Callable, Iterable

# A message echoes at most this many characters of an input value.
_ECHO_CHARS = 40

# A message lists at most this many input values.
_LISTED = 5


def echo(value: object, show: Callable[[object], str] = repr, chars: int = _ECHO_CHARS) -> str:
    """``show(value)`` for a message, cut after ``chars`` characters and
    marked ``…``. A string's repr is cut inside its quotes, so it still reads
    as a string, and a string of up to ``chars`` characters reads whole.
    """
    if show is repr and isinstance(value, str):
        return repr(value if len(value) <= chars else value[:chars] + "…")
    shown = show(value)
    return shown if len(shown) <= chars else shown[:chars] + "…"


def echo_span(start: object, end: object) -> str:
    """The half-open offset interval ``[start, end)`` for a message."""
    return f"[{echo(start, str)}, {echo(end, str)})"


def echo_list(values: Iterable[object]) -> str:
    """The values for a message, sorted and each echoed with ``str``: the
    first ``_LISTED`` of them, then how many more there are.
    """
    ordered = sorted(values)
    listed = ", ".join([echo(value, str) for value in ordered[:_LISTED]])
    if len(ordered) > _LISTED:
        listed += f" and {len(ordered) - _LISTED} more"
    return listed


class AdescopeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdescopeError, ValueError):
    """A domain invariant was violated (bad span, class mismatch, unknown id)."""


class ParseError(ValidationError):
    """A file could not be parsed; the message starts with where (see :func:`located`)."""


def located(fault: object, path: object, lineno: int | None = None) -> ParseError:
    """``fault`` (an exception or a message) as a :class:`ParseError` at ``path:lineno:``,
    or at ``path:`` for a fault of the whole file. No other code writes where a fault is."""
    where = path if lineno is None else f"{path}:{lineno}"
    return ParseError(f"{where}: {fault}")
