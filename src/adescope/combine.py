"""Span algebra: discarding predicted entities that fall inside scopes.

Combining an entity extractor with a scope detector means dropping every
predicted span whose characters intersect any detected scope. Applying the
negation and speculation filters together is the same as filtering by the
union of both scope sets.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple

from .errors import ValidationError, echo
from .scope import Phenomenon, ScopeSpan
from .text import Checked, Span

__all__ = [
    "EntitySet",
    "DiscardedSpan",
    "FilterReport",
    "overlaps",
    "overlap_length",
    "filter_by_scopes",
    "combine",
]


def overlaps(a: Span, b: Span) -> bool:
    """True when the two half-open intervals share at least one character."""
    return a.start < b.end and b.start < a.end


def overlap_length(a: Span, b: Span) -> int:
    """Number of characters shared by the two intervals (0 when disjoint)."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


class EntitySet(Checked, namedtuple("EntitySet", "text_id spans")):
    """Predicted entity spans for one text; duplicates collapse."""

    __slots__ = ()

    def __new__(cls, text_id: str, spans: Iterable[Span]) -> EntitySet:
        if not text_id:
            raise ValidationError("entity set requires a text id")
        if not isinstance(spans, frozenset):
            spans = frozenset(spans)
        return tuple.__new__(cls, (text_id, spans))


class DiscardedSpan(NamedTuple):
    """A dropped prediction together with the scope that witnessed the drop."""

    span: Span
    scope: ScopeSpan
    phenomenon: Phenomenon


class FilterReport(NamedTuple):
    """Outcome of one filtering pass: the survivors and the audit trail."""

    kept: EntitySet
    discarded: tuple[DiscardedSpan, ...]


def _witness_order(scope: ScopeSpan) -> tuple:
    # Earliest scope wins; ties go to the longest, then stable extras.
    return (
        scope.span.start,
        -scope.span.end,
        scope.phenomenon.value,
        scope.trigger.span.start,
        scope.trigger.cue.pattern,
    )


def filter_by_scopes(ades: EntitySet, scopes: Iterable[ScopeSpan]) -> FilterReport:
    """Drop every predicted span that intersects any of the given scopes.

    Every input span lands in exactly one of ``kept`` and ``discarded``.
    Each discarded span records a witness scope: the earliest-starting
    overlapping scope, ties broken by the longest. Scopes bound to a
    different text id are a validation error; an empty scope set returns
    the input unchanged.

    One sweep finds the witnesses: the spans, sorted by start, walk a
    pointer through the scopes in witness order, which only moves forward
    past scopes that end before the current span starts. The cost is
    O(S log S + A log A) for S scopes and A spans, not O(S * A).
    """
    ordered = sorted(scopes, key=_witness_order)
    for scope in ordered:
        if scope.text_id is not None and scope.text_id != ades.text_id:
            raise ValidationError(
                f"scope bound to text {echo(scope.text_id)} cannot filter "
                f"predictions for text {echo(ades.text_id)}"
            )
    kept: set[Span] = set()
    discarded: list[DiscardedSpan] = []
    first = 0
    for span in sorted(ades.spans):
        # Span starts never decrease, so a scope ending at or before this
        # start misses every later span too.
        while first < len(ordered) and ordered[first].span.end <= span.start:
            first += 1
        # Scopes are sorted by start: if the first one still open starts at
        # or after this span's end, no later scope overlaps it either.
        if first < len(ordered) and ordered[first].span.start < span.end:
            witness = ordered[first]
            discarded.append(DiscardedSpan(span, witness, witness.phenomenon))
        else:
            kept.add(span)
    return FilterReport(EntitySet(ades.text_id, frozenset(kept)), tuple(discarded))


def combine(
    ades: EntitySet,
    negations: Iterable[ScopeSpan],
    speculations: Iterable[ScopeSpan],
) -> FilterReport:
    """Apply the negation and speculation filters together.

    Equivalent to filtering by the union of both scope sets, and therefore
    to intersecting the survivor sets of the two single filters. Witness
    scopes are chosen across both phenomena by the same earliest-start,
    longest-scope rule.
    """
    return filter_by_scopes(ades, [*negations, *speculations])
