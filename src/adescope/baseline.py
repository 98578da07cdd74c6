"""Baseline entity extractor.

A lexicon matcher that finds known event terms through the same tokenizer
and longest-match scanner as the cue detector, and returns the matched
spans as an :class:`~adescope.combine.EntitySet`, the same shape a trained
extractor's predictions take after loading.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Iterable, Union

from .combine import EntitySet
from .corpus import lexicon_lines, read_located, read_text
from .errors import ValidationError
from .text import Lexicon, RawText, longest_matches, may_match, tokenize

__all__ = [
    "AdeLexicon",
    "load_ade_lexicon",
    "default_ade_lexicon",
    "extract",
]


class AdeLexicon(Lexicon):
    """A set of adverse event terms, kept as written and matched
    case-insensitively; each is checked and indexed as read (see
    :class:`~adescope.text.Lexicon`), so a term that holds no token, or is
    keyed like an earlier one, is refused."""

    _FIELDS = ("terms",)

    def __init__(self, terms: Iterable[str]) -> None:
        super().__init__((term, term) for term in terms)
        if not self.values:
            raise ValidationError("an ADE lexicon must contain at least one term")
        self._set(terms=self.values)


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
    hashtagged term keeps its marker in the span. As in
    :func:`~adescope.scope.find_cues`, the terms are matched on the keys of
    the text's :class:`~adescope.text.Tokens`, and a span is built only for
    a matched run; no :class:`~adescope.text.Token` is built. A text the
    word gate rejects (:func:`~adescope.text.may_match`), a short one whose
    words hold no term's first word, is not tokenized at all.
    """
    if not may_match(text.content, (lexicon,)):
        return EntitySet(text.id, ())
    tokens = tokenize(text)
    matches = longest_matches(tokens.keys, lexicon)
    return EntitySet(text.id, [tokens.span(first, last) for first, last, _ in matches])
