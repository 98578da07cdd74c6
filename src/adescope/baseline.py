"""Baseline entity extractor.

A lexicon matcher that scans token sequences for known event terms and
returns the matched spans as an :class:`~adescope.combine.EntitySet`, the
same shape a trained extractor's predictions take after loading.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Union

from .combine import EntitySet
from .corpus import lexicon_lines, read_text
from .errors import ParseError, ValidationError, echo
from .text import (
    Frozen,
    PatternIndex,
    RawText,
    index_patterns,
    longest_matches,
    text_keys,
    token_span,
    tokenize,
)

__all__ = [
    "AdeLexicon",
    "load_ade_lexicon",
    "default_ade_lexicon",
    "extract",
]


class AdeLexicon(Frozen):
    """A set of adverse event terms, matched case-insensitively on tokens."""

    _FIELDS = ("terms",)

    def __init__(self, terms: Iterable[str]) -> None:
        terms = tuple(terms)
        if not terms:
            raise ValidationError("an ADE lexicon must contain at least one term")
        normalised = []
        seen: set[str] = set()
        for term in terms:
            term = term.strip().casefold()
            if not term:
                raise ValidationError("empty ADE lexicon term")
            if term in seen:
                raise ValidationError(f"duplicate ADE lexicon term {echo(term)}")
            seen.add(term)
            normalised.append(term)
        self._set(terms=tuple(normalised))

    @cached_property
    def _index(self) -> PatternIndex:
        return index_patterns((term, term) for term in self.terms)


def load_ade_lexicon(path: Union[str, Path]) -> AdeLexicon:
    """Load one term per line; ``#`` comments and blank lines are skipped."""
    path = Path(path)
    lines = lexicon_lines(read_text(path))
    try:
        return AdeLexicon(line for _, line in lines)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


@lru_cache(maxsize=1)
def default_ade_lexicon() -> AdeLexicon:
    """The event term lexicon shipped with the package."""
    return load_ade_lexicon(Path(__file__).with_name("data") / "ade_terms.txt")


def extract(text: RawText, lexicon: AdeLexicon) -> EntitySet:
    """Find lexicon terms in a text.

    Matches are token-boundary aligned, case-insensitive, longest-leftmost
    and non-overlapping; the returned spans cover whole tokens, so a
    hashtagged term keeps its marker in the span. The terms are matched on
    the text's keys, and the text is tokenized only when a term matches.
    """
    matches = longest_matches(text_keys(text), lexicon._index)
    if not matches:
        return EntitySet(text.id, frozenset())
    tokens = tokenize(text)
    spans = frozenset(token_span(tokens, first, last) for first, last, _ in matches)
    return EntitySet(text.id, spans)
