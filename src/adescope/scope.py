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
cue match, terminal punctuation (. ! ? or a newline between tokens), or
the edge of the text. Scopes never cross sentence boundaries.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, Union

from .corpus import lexicon_lines, read_text
from .errors import ParseError, ValidationError, echo
from .text import (
    Checked,
    Frozen,
    LabeledSample,
    PatternIndex,
    RawText,
    Span,
    Token,
    index_patterns,
    longest_matches,
    text_keys,
    token_keys,
    token_span,
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


class Phenomenon(str, Enum):
    NEGATION = "negation"
    SPECULATION = "speculation"


class CueCategory(str, Enum):
    PRE_TRIGGER = "pre_trigger"
    POST_TRIGGER = "post_trigger"
    PSEUDO_TRIGGER = "pseudo_trigger"
    TERMINATOR = "terminator"


# When distinct cues normalise to the same token key sequence, the safest
# reading wins: refuse to open a scope before closing one, close before
# opening forward, forward before backward.
_CATEGORY_PRIORITY = {
    CueCategory.PSEUDO_TRIGGER: 0,
    CueCategory.TERMINATOR: 1,
    CueCategory.PRE_TRIGGER: 2,
    CueCategory.POST_TRIGGER: 3,
}


class Cue(Checked, namedtuple("Cue", "pattern category phenomenon")):
    """One lexicon entry: a casefolded phrase with its category."""

    __slots__ = ()

    def __new__(cls, pattern: str, category: CueCategory, phenomenon: Phenomenon) -> Cue:
        if not pattern or pattern != pattern.strip():
            raise ValidationError(f"bad cue pattern {echo(pattern)}")
        return tuple.__new__(cls, (pattern.casefold(), category, phenomenon))


class CueLexicon(Frozen):
    """An ordered collection of cues for one phenomenon."""

    _FIELDS = ("cues", "phenomenon")

    def __init__(self, cues: Iterable[Cue], phenomenon: Phenomenon) -> None:
        cues = tuple(cues)
        if not cues:
            raise ValidationError("a cue lexicon must contain at least one cue")
        seen: set[tuple[str, CueCategory]] = set()
        for cue in cues:
            if cue.phenomenon is not phenomenon:
                raise ValidationError(
                    f"cue {echo(cue.pattern)} is tagged {cue.phenomenon.value}, "
                    f"lexicon is {phenomenon.value}"
                )
            entry = (cue.pattern, cue.category)
            if entry in seen:
                raise ValidationError(
                    f"duplicate cue {echo(cue.pattern)} ({cue.category.value})"
                )
            seen.add(entry)
        self._set(cues=cues, phenomenon=phenomenon)

    @cached_property
    def _index(self) -> PatternIndex:
        ranked = sorted(self.cues, key=lambda cue: _CATEGORY_PRIORITY[cue.category])
        return index_patterns((cue.pattern, cue) for cue in ranked)


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
    category name. Duplicate (pattern, category) pairs and empty lexicons
    are rejected.
    """
    cues: list[Cue] = []
    for lineno, line in lexicon_lines(content):
        parts = line.split("|")
        if len(parts) != 2:
            raise ParseError(f"{source}:{lineno}: expected 'pattern|category'")
        pattern, category_name = parts[0].strip(), parts[1].strip()
        if not pattern:
            raise ParseError(f"{source}:{lineno}: empty cue pattern")
        try:
            category = CueCategory(category_name)
        except ValueError:
            raise ParseError(
                f"{source}:{lineno}: unknown cue category {echo(category_name)}"
            ) from None
        cues.append(Cue(pattern, category, phenomenon))
    try:
        return CueLexicon(cues, phenomenon)
    except ValidationError as exc:
        raise ParseError(f"{source}: {exc}") from None


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


def find_cues(tokens: Sequence[Token], lexicon: CueLexicon) -> list[CueMatch]:
    """Locate cue phrases in a token sequence.

    Matching is case-insensitive on token comparison keys and greedy: at
    each position the longest matching pattern wins and the scan resumes
    after it, so matches never overlap and a pseudo-trigger swallows the
    shorter trigger it subsumes. Returns matches in text order.
    """
    return [
        CueMatch(cue, token_span(tokens, first, last), first, last)
        for first, last, cue in longest_matches(token_keys(tokens), lexicon._index)
    ]


def resolve_scopes(
    text: Union[str, RawText],
    tokens: Sequence[Token],
    cue_matches: Iterable[CueMatch],
    window: int = DEFAULT_WINDOW,
) -> list[ScopeSpan]:
    """Project trigger cues onto scopes.

    ``text`` must be the string the tokens were produced from; it is needed
    to spot newlines between tokens. Pre-triggers scan forward from the
    token after the cue, post-triggers scan backward from the token before
    it; both stop at a non-pseudo cue match, terminal punctuation, a
    newline gap, the window limit, or the text edge. Cues with nothing left
    to govern produce no scope. Scopes are returned ordered by position.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {echo(window, str)}")
    if isinstance(text, RawText):
        content, text_id = text.content, text.id
    else:
        content, text_id = text, None

    matches = list(cue_matches)
    occupied: set[int] = set()
    for match in matches:
        if match.cue.category is not CueCategory.PSEUDO_TRIGGER:
            occupied.update(range(match.first_token, match.last_token + 1))

    def extends(previous: int, position: int) -> bool:
        """Whether a scope at token ``previous`` may take in its neighbour."""
        if not 0 <= position < len(tokens) or position in occupied:
            return False
        if tokens[position].surface in TERMINAL_TOKENS:
            return False
        left, right = min(previous, position), max(previous, position)
        gap = content[tokens[left].span.end : tokens[right].span.start]
        return "\n" not in gap and "\r" not in gap

    scopes: list[ScopeSpan] = []
    for match in matches:
        category = match.cue.category
        if category is CueCategory.PRE_TRIGGER:
            edge, step = match.last_token, 1
        elif category is CueCategory.POST_TRIGGER:
            edge, step = match.first_token, -1
        else:
            continue
        reached = edge
        while abs(reached - edge) < window and extends(reached, reached + step):
            reached += step
        if reached != edge:
            first, last = sorted((edge + step, reached))
            scopes.append(
                ScopeSpan(token_span(tokens, first, last), match, match.cue.phenomenon, text_id)
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
    Only a text that holds a first key of some lexicon (see
    :func:`~adescope.text.longest_matches`) is tokenized; any other text, or
    an empty lexicon collection, yields no scopes without tokenizing.
    """
    lexicons = tuple(lexicons)
    if lexicons:
        keys = text_keys(text)
        lexicons = tuple(lex for lex in lexicons if not lex._index.keys().isdisjoint(keys))
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
    merely bound scopes. Order is preserved. No text is tokenized: the cues
    are matched on the text's keys alone.
    """
    indexes = [lexicon._index for lexicon in lexicons]
    if not indexes:
        raise ValidationError("prefilter requires at least one lexicon")
    triggers = (CueCategory.PRE_TRIGGER, CueCategory.POST_TRIGGER)
    kept: list[LabeledSample] = []
    for sample in samples:
        keys = text_keys(sample.text)
        if any(
            cue.category in triggers
            for index in indexes
            for _, _, cue in longest_matches(keys, index)
        ):
            kept.append(sample)
    return kept
