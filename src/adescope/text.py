"""Texts, character spans, tokens, lexicon matching and BIO tag sequences.

Offsets throughout the package are half-open ``[start, end)`` counts of
Unicode scalar values into the owning text, so ``text[span.start:span.end]``
is always the covered surface. A :class:`Span` is a ``(start, end)``
NamedTuple that sorts and hashes as a tuple, so ``Span(0, 3) == (0, 3)``;
its constructor checks the offsets, and only :func:`tokenize` builds spans
unchecked.

The package's other value records are namedtuples too, compared and hashed
as their field tuples; one with rules checks them in ``__new__``, also on
``_make`` and ``_replace`` (:class:`Checked`). Classes with cached or
derived state, compared by identity or acting as sequences are plain
immutable classes (:class:`Frozen`). Both are plain Python, with no
class-generating decorator: importing and applying one took about 20 ms of
every command-line launch.

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
from enum import Enum
from itertools import accumulate, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

from .errors import ValidationError, echo, echo_span

__all__ = [
    "Checked",
    "Frozen",
    "Span",
    "RawText",
    "check_id",
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
# non-space character becomes a single-character token. The one capturing
# group holds the whole token, so findall returns the tokens and split
# alternates gaps and tokens.
_TOKEN_RE = re.compile(r"([#@]\w+(?:['’]\w+)*|\w+(?:['’]\w+)*|[^\w\s])")


class Checked:
    """Mixin for a namedtuple record whose ``__new__`` checks or normalises
    its fields: ``_make``, and so ``_replace``, goes through ``__new__`` too,
    where namedtuple's own ``_make`` would skip it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class Frozen:
    """Base of the package's plain (non-tuple) classes.

    ``__init__`` sets every attribute once, through :meth:`_set`; assigning
    or deleting one afterwards raises :class:`AttributeError`. The repr is
    ``Name(field=…)`` over ``_FIELDS``, and two instances of one class are
    equal, and hash alike, when their ``_FIELDS`` are; a class compared by
    identity sets ``__eq__`` and ``__hash__`` back to ``object``'s.
    """

    _FIELDS: tuple[str, ...] = ()

    def _set(self, **attributes: object) -> None:
        self.__dict__.update(attributes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._FIELDS])
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())


class Span(Checked, namedtuple("Span", "start end")):
    """Half-open character interval [start, end), ordered, compared and
    hashed as the tuple ``(start, end)``."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> Span:
        if start < 0 or end <= start:
            raise ValidationError(f"invalid span {echo_span(start, end)}")
        return tuple.__new__(cls, (start, end))


def disjoint_spans(spans: Iterable[Span], what: str = "spans") -> list[Span]:
    """The spans in sorted order; any overlapping pair is a :class:`ValidationError`."""
    ordered = sorted(spans)
    for left, right in zip(ordered, ordered[1:]):
        if left.end > right.start:
            raise ValidationError(f"{what} {echo_span(*left)} and {echo_span(*right)} overlap")
    return ordered


def check_id(text_id: str) -> None:
    """Refuse a text id that a corpus or prediction file cannot hold as it is:
    blank (its row is skipped), holding a row or field separator, or starting
    with ``#`` (a comment) or U+FEFF (a byte order mark, which reading drops)."""
    if (
        not text_id or text_id[0] in "#\ufeff" or text_id.isspace()
        or "\t" in text_id or "\n" in text_id or "\r" in text_id
    ):
        raise ValidationError(
            f"text id {echo(text_id)} must be non-blank, hold no tab, newline or "
            "carriage return, and not start with '#' or U+FEFF"
        )


class RawText(Checked, namedtuple("RawText", "id content")):
    """A unit of input text (one post) with a corpus-unique id."""

    __slots__ = ()

    def __new__(cls, id: str, content: str) -> RawText:
        check_id(id)
        if not content or content.isspace():  # strip() would copy the text
            raise ValidationError(f"text {echo(id)} has empty content")
        return tuple.__new__(cls, (id, content))


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


class LabeledSample(Checked, namedtuple("LabeledSample", "text gold_spans sample_class")):
    """A text plus its gold entity spans and sample class."""

    __slots__ = ()

    def __new__(
        cls, text: RawText, gold_spans: Iterable[Span], sample_class: SampleClass
    ) -> LabeledSample:
        if not isinstance(gold_spans, frozenset):
            gold_spans = frozenset(gold_spans)
        length = len(text.content)
        for span in gold_spans:
            if span.end > length:
                raise ValidationError(
                    f"sample {echo(text.id)}: span {echo_span(*span)} "
                    f"exceeds text length {length}"
                )
        if sample_class is SampleClass.ADE:
            if not gold_spans:
                raise ValidationError(
                    f"sample {echo(text.id)}: class A requires at least one gold span"
                )
        elif gold_spans:
            raise ValidationError(
                f"sample {echo(text.id)}: class {sample_class.value} "
                "must not carry gold spans"
            )
        if len(gold_spans) > 1:  # fewer spans cannot overlap
            disjoint_spans(gold_spans, f"sample {echo(text.id)}: gold spans")
        return tuple.__new__(cls, (text, gold_spans, sample_class))


class Token(NamedTuple):
    """A token's surface and character span; its position is its list index."""

    surface: str
    span: Span


_VALID_TAGS = frozenset({"B", "I", "O"})


class TagSequence(Frozen):
    """A BIO tag per token. May be ill-formed; see :meth:`is_well_formed`."""

    _FIELDS = ("tags",)

    def __init__(self, tags: Iterable[str]) -> None:
        tags = tuple(tags)
        bad = [t for t in tags if t not in _VALID_TAGS]
        if bad:
            raise ValidationError(f"invalid BIO tags: {echo(sorted(set(bad)))}")
        self._set(tags=tags)

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
    # parts is gap, token, gap, ..., token, gap; the running lengths at even
    # positions are token starts and at odd positions token ends. A token is
    # a non-empty match, so its offsets are a valid span by construction.
    parts = _TOKEN_RE.split(content)
    ends = list(accumulate(map(len, parts)))
    spans = map(tuple.__new__, repeat(Span), zip(ends[0::2], ends[1::2]))
    return list(map(tuple.__new__, repeat(Token), zip(parts[1::2], spans)))


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
