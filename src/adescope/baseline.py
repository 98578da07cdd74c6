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
from .corpus import lexicon_lines, read_located, read_text
from .errors import ValidationError, echo
from .text import Frozen, PatternIndex, RawText, index_patterns, locate_matches

# Not called here: the benchmark's traced pass and some tests patch
# ``baseline.tokenize``, so the name stays bound until that seam goes.
from .text import tokenize  # noqa: F401

__all__ = [
    "AdeLexicon",
    "load_ade_lexicon",
    "default_ade_lexicon",
    "extract",
]


class AdeLexicon(Frozen):
    """A set of adverse event terms, matched case-insensitively; each is checked as read."""

    _FIELDS = ("terms",)

    def __init__(self, terms: Iterable[str]) -> None:
        normalised: dict[str, None] = {}
        for term in terms:
            term = term.strip().casefold()
            if not term:
                raise ValidationError("empty ADE lexicon term")
            if term in normalised:
                raise ValidationError(f"duplicate ADE lexicon term {echo(term)}")
            normalised[term] = None
        if not normalised:
            raise ValidationError("an ADE lexicon must contain at least one term")
        self._set(terms=tuple(normalised))

    @cached_property
    def _index(self) -> PatternIndex:
        return index_patterns((term, term) for term in self.terms)


def load_ade_lexicon(path: Union[str, Path]) -> AdeLexicon:
    """Load one term per line; ``#`` comments and blank lines are skipped."""
    path = Path(path)
    return read_located(path, lexicon_lines(read_text(path)), str, AdeLexicon)


@lru_cache(maxsize=1)
def default_ade_lexicon() -> AdeLexicon:
    """The event term lexicon shipped with the package."""
    return load_ade_lexicon(Path(__file__).with_name("data") / "ade_terms.txt")


def extract(text: RawText, lexicon: AdeLexicon) -> EntitySet:
    """Find lexicon terms in a text.

    Matches are token-boundary aligned, case-insensitive, longest-leftmost
    and non-overlapping; the returned spans cover whole tokens, so a
    hashtagged term keeps its marker in the span. The terms are matched on
    the keys of one split of the text, and spans are built only for the
    matched runs (:func:`~adescope.text.locate_matches`); no text is
    tokenized.
    """
    return EntitySet(text.id, frozenset(locate_matches(text, lexicon._index)))
