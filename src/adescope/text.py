"""Texts, character spans, tokens, lexicon matching and BIO tag sequences.

Offsets throughout the package are half-open ``[start, end)`` counts of
Unicode scalar values into the owning text, so ``text[span.start:span.end]``
is always the covered surface. A :class:`Span` is a ``(start, end)``
NamedTuple that sorts and hashes as a tuple, so ``Span(0, 3) == (0, 3)``;
its constructor checks the offsets, and only :func:`tokenize` builds spans
unchecked.

Cue phrases and event terms are found by one shared matcher on match keys:
:func:`text_keys` keys a text's token surfaces in one pass, without building
tokens, :func:`index_patterns` keys lexicon patterns the same way, and
:func:`longest_matches` scans a key sequence for the longest pattern at each
position. A text is tokenized only when a lexicon matches in it, to turn the
matched token ranges into character spans (:func:`token_span`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

from .errors import ValidationError, echo, echo_span

__all__ = [
    "Span",
    "RawText",
    "SampleClass",
    "LabeledSample",
    "Token",
    "TagSequence",
    "disjoint_spans",
    "tokenize",
    "token_span",
    "text_keys",
    "token_keys",
    "index_patterns",
    "longest_matches",
    "spans_to_bio",
    "bio_to_spans",
]

# Word runs keep a leading # or @ (hashtags, mentions) and internal
# apostrophes (contractions such as "don't", "there's"). Every other
# non-space character becomes a single-character token.
_TOKEN_RE = re.compile(r"[#@]\w+(?:['’]\w+)*|\w+(?:['’]\w+)*|[^\w\s]")


class Span(namedtuple("Span", "start end")):
    """Half-open character interval [start, end), ordered, compared and
    hashed as the tuple ``(start, end)``."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> Span:
        if start < 0 or end <= start:
            raise ValidationError(f"invalid span {echo_span(start, end)}")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Span:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


def disjoint_spans(spans: Iterable[Span], what: str = "spans") -> list[Span]:
    """The spans in sorted order; any overlapping pair is a :class:`ValidationError`."""
    ordered = sorted(spans)
    for left, right in zip(ordered, ordered[1:]):
        if left.end > right.start:
            raise ValidationError(f"{what} {echo_span(*left)} and {echo_span(*right)} overlap")
    return ordered


@dataclass(frozen=True)
class RawText:
    """A unit of input text (one post) with a corpus-unique id."""

    id: str
    content: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("text id must be non-empty")
        if not self.content or self.content.isspace():  # strip() would copy the text
            raise ValidationError(f"text {echo(self.id)} has empty content")


class SampleClass(str, Enum):
    """Four-way sample label used by the corpus format.

    A: mentions an adverse drug event; X: no mention; N: an event mention
    under negation; S: an event mention that is speculated or questioned.
    """

    ADE = "A"
    NO_ADE = "X"
    NEGATED = "N"
    SPECULATED = "S"


# Column order used by reports; mirrors how per-class false positives are
# conventionally tabulated (speculated, negated, present, absent).
REPORT_CLASS_ORDER = (
    SampleClass.SPECULATED,
    SampleClass.NEGATED,
    SampleClass.ADE,
    SampleClass.NO_ADE,
)


@dataclass(frozen=True)
class LabeledSample:
    """A text plus its gold entity spans and sample class."""

    text: RawText
    gold_spans: frozenset[Span]
    sample_class: SampleClass

    def __post_init__(self) -> None:
        if not isinstance(self.gold_spans, frozenset):
            object.__setattr__(self, "gold_spans", frozenset(self.gold_spans))
        length = len(self.text.content)
        for span in self.gold_spans:
            if span.end > length:
                raise ValidationError(
                    f"sample {echo(self.text.id)}: span {echo_span(*span)} "
                    f"exceeds text length {length}"
                )
        if self.sample_class is SampleClass.ADE:
            if not self.gold_spans:
                raise ValidationError(
                    f"sample {echo(self.text.id)}: class A requires at least one gold span"
                )
        elif self.gold_spans:
            raise ValidationError(
                f"sample {echo(self.text.id)}: class {self.sample_class.value} "
                "must not carry gold spans"
            )
        if len(self.gold_spans) > 1:  # fewer spans cannot overlap
            disjoint_spans(self.gold_spans, f"sample {echo(self.text.id)}: gold spans")


class Token(NamedTuple):
    """A token's surface and character span; its position is its list index."""

    surface: str
    span: Span


_VALID_TAGS = frozenset({"B", "I", "O"})


@dataclass(frozen=True)
class TagSequence:
    """A BIO tag per token. May be ill-formed; see :meth:`is_well_formed`."""

    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tags, tuple):
            object.__setattr__(self, "tags", tuple(self.tags))
        bad = [t for t in self.tags if t not in _VALID_TAGS]
        if bad:
            raise ValidationError(f"invalid BIO tags: {echo(sorted(set(bad)))}")

    @property
    def is_well_formed(self) -> bool:
        """True when no I tag opens the sequence or follows an O."""
        previous = "O"
        for tag in self.tags:
            if tag == "I" and previous == "O":
                return False
            previous = tag
        return True

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tags)

    def __getitem__(self, position: int) -> str:
        return self.tags[position]


def tokenize(text: Union[str, RawText]) -> list[Token]:
    """Split text into tokens; offsets index into the original string.

    Whitespace separates tokens and is never part of one. Punctuation is
    split from adjacent word characters, except a leading # or @ (hashtags
    and mentions) and apostrophes inside contractions. Empty input yields
    an empty list.
    """
    content = text.content if isinstance(text, RawText) else text
    # A regex match of a non-empty pattern is a valid span by construction.
    return [
        Token(match.group(), tuple.__new__(Span, match.span()))
        for match in _TOKEN_RE.finditer(content)
    ]


def _keys(surfaces: Iterable[str]) -> tuple[str, ...]:
    """The match key of each token surface: casefolded, curly apostrophes
    straightened and a leading hashtag marker dropped, so that "#Headache"
    compares equal to the lexicon entry "headache". Mention markers are
    kept: usernames are names, not words.

    The surfaces are keyed together in one pass. That is exact: no surface
    holds a space, ``str.casefold`` maps each code point on its own, and no
    code point but the character itself folds to " ", "#" or "’".
    """
    joined = " ".join(surfaces)
    if not joined:
        return ()
    keys = (" " + joined).casefold().replace("’", "'").replace(" #", " ").split(" ")
    return tuple(keys[1:])


def text_keys(text: Union[str, RawText]) -> tuple[str, ...]:
    """The match key of every token of the text, without tokenizing it."""
    return _keys(_TOKEN_RE.findall(text.content if isinstance(text, RawText) else text))


def token_keys(tokens: Sequence[Token]) -> tuple[str, ...]:
    """The match key of every token, in order."""
    return _keys(map(attrgetter("surface"), tokens))


def token_span(tokens: Sequence[Token], first: int, last: int) -> Span:
    """The character span that tokens ``first..last`` (inclusive) cover."""
    return Span(tokens[first].span.start, tokens[last].span.end)


V = TypeVar("V")

#: Patterns grouped by their first key, each group ordered longest first.
PatternIndex = Mapping[str, Sequence[tuple[tuple[str, ...], V]]]


def index_patterns(entries: Iterable[tuple[str, V]]) -> PatternIndex:
    """Index ``(pattern, value)`` pairs for :func:`longest_matches`.

    Each pattern is keyed the way texts are (:func:`text_keys`), so it must
    hold at least one token. When patterns share a key sequence the first
    entry's value wins.
    """
    table: dict[tuple[str, ...], V] = {}
    for pattern, value in entries:
        table.setdefault(text_keys(pattern), value)
    groups: dict[str, list[tuple[tuple[str, ...], V]]] = {}
    for keys, value in table.items():
        groups.setdefault(keys[0], []).append((keys, value))
    return {
        first: tuple(sorted(group, key=lambda entry: -len(entry[0])))
        for first, group in groups.items()
    }


def longest_matches(keys: tuple[str, ...], index: PatternIndex) -> list[tuple[int, int, V]]:
    """Greedy leftmost-longest, non-overlapping pattern matches over match keys.

    A key run matches a pattern when it equals the pattern's keys. At each
    position the longest pattern starting there wins and the scan resumes
    after it. Returns ``(first, last, value)`` in order; ``first`` and
    ``last`` are inclusive token positions. A match starts only at a first
    key of the index, so keys disjoint from ``index.keys()`` match nothing.
    """
    matches: list[tuple[int, int, V]] = []
    position, count = 0, len(keys)
    while position < count:
        for pattern, value in index.get(keys[position], ()):
            last = position + len(pattern) - 1
            if keys[position : last + 1] == pattern:
                matches.append((position, last, value))
                position = last + 1
                break
        else:
            position += 1
    return matches


def spans_to_bio(tokens: Sequence[Token], spans: Iterable[Span]) -> TagSequence:
    """Project character spans onto tokens as BIO tags.

    A token counts as inside a span when their character ranges intersect,
    so a partially covered token is tagged; a token that two spans cover
    takes the later span's tag. Overlapping input spans are rejected. The
    tokens must be in text order, as :func:`tokenize` returns them.

    One sweep: the sorted spans walk a token pointer that only moves past
    tokens ending at or before the current span's start, so the cost is
    O(T + S log S) for T tokens and S spans, not O(T * S).
    """
    tags = ["O"] * len(tokens)
    first = 0
    for span in disjoint_spans(spans):
        while first < len(tokens) and tokens[first].span.end <= span.start:
            first += 1
        position, tag = first, "B"
        while position < len(tokens) and tokens[position].span.start < span.end:
            tags[position] = tag
            position, tag = position + 1, "I"
    return TagSequence(tuple(tags))


def bio_to_spans(
    tokens: Sequence[Token],
    tags: Union[TagSequence, Sequence[str]],
    strict: bool = False,
) -> set[Span]:
    """Recover character spans from BIO tags over tokens.

    Each maximal B(I)* run becomes one span from the first token's start to
    the last token's end. An I that opens the sequence or follows an O is
    repaired to B by default; with ``strict=True`` it raises instead.
    Token-boundary-aligned spans round-trip exactly through
    :func:`spans_to_bio`.
    """
    sequence = TagSequence(tags).tags
    if len(sequence) != len(tokens):
        raise ValidationError(
            f"{len(sequence)} tags for {len(tokens)} tokens"
        )

    spans: set[Span] = set()
    run_start: int | None = None
    run_end = 0
    previous = "O"
    for position, tag in enumerate(sequence):
        if tag == "I" and previous == "O":
            if strict:
                raise ValidationError(
                    f"ill-formed tag sequence: I at position {position} "
                    "does not continue a span"
                )
            tag = "B"
        if tag == "B":
            if run_start is not None:
                spans.add(Span(run_start, run_end))
            run_start = tokens[position].span.start
            run_end = tokens[position].span.end
        elif tag == "I":
            run_end = tokens[position].span.end
        else:
            if run_start is not None:
                spans.add(Span(run_start, run_end))
                run_start = None
        previous = tag
    if run_start is not None:
        spans.add(Span(run_start, run_end))
    return spans
