"""Cue lexicons and rule-based negation/speculation scope detection.

The engine follows the classic NegEx family of regular-expression taggers:
a small lexicon of cue phrases is matched over tokens, and each trigger cue
projects a scope over a bounded window of neighbouring tokens.

Cue categories:

* ``pre_trigger``  opens a forward scope over the tokens after the cue.
* ``post_trigger`` opens a backward scope over the tokens before the cue.
* ``pseudo_trigger`` looks like a trigger but is not one ("no wonder");
  because matching is longest-first, a pseudo match consumes and thereby
  suppresses any shorter trigger it subsumes, and opens no scope.
* ``terminator`` closes an open scope ("but", "however").

A scope ends at the earliest of: the window being exhausted, a non-pseudo
cue match, terminal punctuation (. ! ? …), a newline or carriage return
between tokens, or the edge of the text. Scopes never cross sentence
boundaries.

:func:`detect` tokenizes a text at most once for all its lexicons, and scans
only the lexicons the word gate (:func:`~adescope.text.may_match`) lets
through: for a short text, those with a first word among the text's words.
A text no lexicon passes is not tokenized at all. The cues are matched on
the tokens' keys, the scope walk reads token surfaces and the gaps between
them from the text's split, and character spans are built only for the
matched cue runs and the scopes they open (see
:class:`~adescope.text.Tokens`). :func:`prefilter` matches on the same keys
and locates nothing. A cue is kept as written and keyed as a text's tokens
are, so it matches whatever the case of either.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache, partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, Union

from .corpus import lexicon_lines, read_located, read_text
from .errors import ValidationError, echo
from .text import (
    Checked,
    LabeledSample,
    Lexicon,
    RawText,
    Span,
    Tokens,
    _PREFIX_CHARS,
    longest_matches,
    may_match,
    tokenize,
)

__all__ = [
    "Phenomenon",
    "CueCategory",
    "Cue",
    "CueLexicon",
    "CueMatch",
    "ScopeSpan",
    "load_lexicon",
    "parse_lexicon",
    "bundled_lexicon",
    "default_negation_lexicon",
    "default_speculation_lexicon",
    "find_cues",
    "resolve_scopes",
    "detect",
    "detect_negation",
    "detect_speculation",
    "prefilter",
]

#: Tokens that close a sentence and therefore any open scope.
TERMINAL_TOKENS = frozenset({".", "!", "?", "…"})

DEFAULT_WINDOW = 5

_SPACE_RE = re.compile(r"\s")


class Phenomenon(str, Enum):
    NEGATION = "negation"
    SPECULATION = "speculation"


class CueCategory(str, Enum):
    PRE_TRIGGER = "pre_trigger"
    POST_TRIGGER = "post_trigger"
    PSEUDO_TRIGGER = "pseudo_trigger"
    TERMINATOR = "terminator"


# Bound once: resolve_scopes and prefilter read a category per cue match.
_PRE, _POST, _PSEUDO = (
    CueCategory.PRE_TRIGGER, CueCategory.POST_TRIGGER, CueCategory.PSEUDO_TRIGGER
)


class Cue(Checked, namedtuple("Cue", "pattern category phenomenon")):
    """One lexicon entry: a phrase, as written, with its category."""

    __slots__ = ()

    def __new__(cls, pattern: str, category: CueCategory, phenomenon: Phenomenon) -> Cue:
        if not pattern or pattern != pattern.strip():
            raise ValidationError(f"bad cue pattern {echo(pattern)}")
        return tuple.__new__(cls, (pattern, category, phenomenon))


class CueLexicon(Lexicon):
    """An ordered collection of cues for one phenomenon; each is checked and
    indexed as read, so a cue that holds no token, or is keyed like an
    earlier one whatever either's category, is refused (see
    :class:`~adescope.text.Lexicon`)."""

    _FIELDS = ("cues", "phenomenon")

    def __init__(self, cues: Iterable[Cue], phenomenon: Phenomenon) -> None:
        super().__init__((cue.pattern, cue) for cue in cues)
        if not self.values:
            raise ValidationError("a cue lexicon must contain at least one cue")
        for cue in self.values:
            if cue.phenomenon is not phenomenon:
                raise ValidationError(
                    f"cue {echo(cue.pattern)} is tagged {cue.phenomenon.value}, "
                    f"lexicon is {phenomenon.value}"
                )
        self._set(cues=self.values, phenomenon=phenomenon)


class CueMatch(Checked, namedtuple("CueMatch", "cue span first_token last_token")):
    """A cue located in a token sequence; token indices are inclusive."""

    __slots__ = ()

    def __new__(cls, cue: Cue, span: Span, first_token: int, last_token: int) -> CueMatch:
        if first_token < 0 or last_token < first_token:
            raise ValidationError(f"bad token range {first_token}..{last_token}")
        return tuple.__new__(cls, (cue, span, first_token, last_token))


class ScopeSpan(NamedTuple):
    """A resolved scope: the characters governed by one trigger cue."""

    span: Span
    trigger: CueMatch
    phenomenon: Phenomenon
    text_id: str | None = None


def parse_lexicon(
    content: str, phenomenon: Phenomenon, source: str = "<string>"
) -> CueLexicon:
    """Parse ``pattern|category`` lines into a lexicon.

    Blank lines and lines starting with ``#`` are ignored. Every other line
    must contain exactly one ``|`` separating a non-empty pattern from a
    category name. A cue whose match keys an earlier line's cue has (the
    same words, or the same but for case, a hashtag's ``#`` or a curly
    apostrophe), whatever either's category, and an empty lexicon are
    rejected.
    """

    def cue(line: str) -> Cue:
        parts = line.split("|")
        if len(parts) != 2:
            raise ValidationError("expected 'pattern|category'")
        pattern, category_name = parts[0].strip(), parts[1].strip()
        try:
            category = CueCategory(category_name)
        except ValueError:
            raise ValidationError(f"unknown cue category {echo(category_name)}") from None
        return Cue(pattern, category, phenomenon)

    lexicon = partial(CueLexicon, phenomenon=phenomenon)
    return read_located(source, lexicon_lines(content), cue, lexicon)


def load_lexicon(path: Union[str, Path], phenomenon: Phenomenon) -> CueLexicon:
    """Load a ``pattern|category`` lexicon file (UTF-8)."""
    path = Path(path)
    return parse_lexicon(read_text(path), phenomenon, str(path))


@lru_cache(maxsize=None)
def bundled_lexicon(phenomenon: Phenomenon) -> CueLexicon:
    """The cue lexicon shipped with the package for ``phenomenon``."""
    path = Path(__file__).with_name("data") / f"{phenomenon.value}_cues.txt"
    return load_lexicon(path, phenomenon)


def default_negation_lexicon() -> CueLexicon:
    """The negation cue lexicon shipped with the package."""
    return bundled_lexicon(Phenomenon.NEGATION)


def default_speculation_lexicon() -> CueLexicon:
    """The speculation cue lexicon shipped with the package."""
    return bundled_lexicon(Phenomenon.SPECULATION)


def find_cues(tokens: Tokens, lexicon: CueLexicon) -> list[CueMatch]:
    """Locate cue phrases in a token sequence.

    Matching is case-insensitive on the tokens' match keys and greedy: at
    each position the longest matching pattern wins and the scan resumes
    after it, so matches never overlap and a pseudo-trigger swallows the
    shorter trigger it subsumes. Returns matches in text order.
    """
    return [
        CueMatch(cue, tokens.span(first, last), first, last)
        for first, last, cue in longest_matches(tokens.keys, lexicon)
    ]


def resolve_scopes(
    text: Union[str, RawText],
    tokens: Tokens,
    cue_matches: Iterable[CueMatch],
    window: int = DEFAULT_WINDOW,
) -> list[ScopeSpan]:
    """Project trigger cues onto scopes.

    ``tokens`` are the text's; the text supplies only the scopes' id (a
    :class:`~adescope.text.RawText`'s, else none). Pre-triggers scan forward
    from the token after the cue, post-triggers scan backward from the token
    before it; both stop at a non-pseudo cue match, terminal punctuation, a
    newline or carriage return between tokens, the window limit, or the text
    edge. Cues with nothing left to govern produce no scope. Scopes are
    returned ordered by position.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {echo(window, str)}")
    text_id = text.id if isinstance(text, RawText) else None

    matches = list(cue_matches)
    count = len(tokens)
    occupied: set[int] = set()
    for match in matches:
        if match.cue.category is not _PSEUDO:
            occupied.update(range(match.first_token, match.last_token + 1))

    def extends(previous: int, position: int) -> bool:
        """Whether a scope at token ``previous`` may take in its neighbour."""
        if not 0 <= position < count or position in occupied:
            return False
        if tokens.surface(position) in TERMINAL_TOKENS:
            return False
        gap = tokens.gap(min(previous, position))
        return "\n" not in gap and "\r" not in gap

    scopes: list[ScopeSpan] = []
    for match in matches:
        category = match.cue.category
        if category is _PRE:
            edge, step = match.last_token, 1
        elif category is _POST:
            edge, step = match.first_token, -1
        else:
            continue
        reached = edge
        while abs(reached - edge) < window and extends(reached, reached + step):
            reached += step
        if reached != edge:
            first, last = sorted((edge + step, reached))
            scopes.append(
                ScopeSpan(tokens.span(first, last), match, match.cue.phenomenon, text_id)
            )
    scopes.sort(key=lambda s: (s.span, s.trigger.span.start))
    return scopes


def detect(
    text: Union[str, RawText],
    lexicons: Iterable[CueLexicon],
    window: int = DEFAULT_WINDOW,
) -> set[ScopeSpan]:
    """Scopes of every given lexicon over one tokenization of the text.

    The result is the union of the scopes each lexicon resolves on its own.
    Only the lexicons the word gate (:func:`~adescope.text.may_match`) lets
    through are scanned: for a short text, those with a first word among
    the text's words. A text no lexicon passes, as most short posts, is not
    tokenized; else it is split and keyed once for them all. Character
    offsets are computed only for the cues found and their scopes.
    """
    content = text.content if isinstance(text, RawText) else text
    lexicons = may_match(content, lexicons)
    if not lexicons:
        return set()
    tokens = tokenize(text)
    return {
        scope
        for lexicon in lexicons
        for scope in resolve_scopes(text, tokens, find_cues(tokens, lexicon), window)
    }


def _detect_one(
    phenomenon: Phenomenon, text: Union[str, RawText], lexicon: CueLexicon | None, window: int
) -> set[ScopeSpan]:
    """Scopes of one lexicon of ``phenomenon``, the bundled one by default."""
    if lexicon is None:
        lexicon = bundled_lexicon(phenomenon)
    if lexicon.phenomenon is not phenomenon:
        raise ValidationError(f"detect_{phenomenon.value} requires a {phenomenon.value} lexicon")
    return detect(text, (lexicon,), window)


def detect_negation(
    text: Union[str, RawText], lexicon: CueLexicon | None = None, window: int = DEFAULT_WINDOW
) -> set[ScopeSpan]:
    """Detect negation scopes; defaults to the bundled negation lexicon."""
    return _detect_one(Phenomenon.NEGATION, text, lexicon, window)


def detect_speculation(
    text: Union[str, RawText], lexicon: CueLexicon | None = None, window: int = DEFAULT_WINDOW
) -> set[ScopeSpan]:
    """Detect speculation scopes; defaults to the bundled speculation lexicon."""
    return _detect_one(Phenomenon.SPECULATION, text, lexicon, window)


def prefilter(
    samples: Sequence[LabeledSample], lexicons: Iterable[CueLexicon]
) -> list[LabeledSample]:
    """Keep the samples in which at least one active trigger cue fires.

    A sample survives when any provided lexicon yields a pre- or
    post-trigger match in its text. Pseudo-trigger and terminator matches
    do not count: the former are explicit non-triggers and the latter
    merely bound scopes. Order is preserved. Nothing is located: the cues
    are matched on the keys of the text's tokens alone, and, as in
    :func:`detect`, only the lexicons the word gate
    (:func:`~adescope.text.may_match`) lets through are scanned, and a text
    none passes is not tokenized at all.

    A text longer than ``_PREFIX_CHARS`` is keyed a slice at a time, each
    cut at a whitespace character at least twice as far in as the last,
    until a trigger is found that the whole text's scan would find too: one
    with, from its first key on, as many keys as the longest cue holds (they
    decide a match), or any at the text's end. So a long post is keyed only
    up to its first trigger (20 posts of 200,013 characters with a trigger
    in their first line took 0.35–0.46 s keyed whole and 2–3 ms so, in
    process on a 2-vCPU Xeon VM), while one with no trigger is keyed once
    and scanned about twice.
    """
    lexicons = tuple(lexicons)
    if not lexicons:
        raise ValidationError("prefilter requires at least one lexicon")
    depth = max(lexicon.depth for lexicon in lexicons)
    triggers = (_PRE, _POST)
    kept: list[LabeledSample] = []
    for sample in samples:
        text, keys = sample.text.content, ()
        if not (passed := may_match(text, lexicons)):
            continue
        start, size = 0, _PREFIX_CHARS
        while True:
            space = _SPACE_RE.search(text, size) if len(text) > size else None
            end = space.start() if space else len(text)
            keys += tokenize(text[start:end]).keys
            final = len(keys) - depth if space else len(keys)
            if any(
                cue.category in triggers and first <= final
                for lexicon in passed
                for first, _, cue in longest_matches(keys, lexicon)
            ):
                kept.append(sample)
                break
            if space is None:
                break
            start, size = end, 2 * end
    return kept
