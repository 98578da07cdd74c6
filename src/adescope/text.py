"""Texts, character spans, tokens, lexicon matching and BIO tag sequences.

Offsets throughout the package are half-open ``[start, end)`` counts of
Unicode scalar values into the owning text, so ``text[span.start:span.end]``
is always the covered surface. A :class:`Span` is a ``(start, end)``
NamedTuple that sorts and hashes as a tuple, so ``Span(0, 3) == (0, 3)``;
its constructor checks the offsets, and only the tokens of a
:class:`Tokens` hold spans built unchecked.

The package's other value records are namedtuples too, compared and hashed
as their field tuples; one with rules checks them in ``__new__``, also on
``_make`` and ``_replace`` (:class:`Checked`). Classes with cached or
derived state, compared by identity or acting as sequences are plain
immutable classes (:class:`Frozen`). Both are plain Python, with no
class-generating decorator: importing and applying one took about 20 ms of
every command-line launch. Code run per row, per match or per scope names no
enum member through its class and reads no member's ``.value``: it binds the
members it compares with at module level and reads values from a dict built
once. The enum metaclass of CPython 3.11 defines ``__getattr__``, and
``.value`` is a Python-level property: on one Xeon core ``SampleClass.ADE``
cost about 110 ns and ``.value`` about 160 ns, against under 10 ns for a
module global and about 20 ns for a dict lookup (a member with a ``str``
mixin hashes as its value, in C).

Cue phrases and event terms are found by one shared matcher on match keys.
:func:`tokenize` returns :class:`Tokens`, a lazy view of one ``re.split`` of
the text that holds its keys, the only key sequence the package makes: it
keys a text, and a :class:`Lexicon` keys each of its patterns, as written,
into a trie that :func:`longest_matches` walks for the longest pattern at
each position. :class:`Tokens` is also the only code that turns token
positions into character offsets, from the running lengths of the split's
parts; it builds a span only for a run it is asked for, and its tokens only
when it is indexed or iterated. Cue detection and term extraction both
match on its keys and locate only the matched runs.

Every lexicon scan is gated by :func:`may_match`: a lexicon none of whose
first words is among a short text's words (:func:`text_words`) is not
scanned, and a text no lexicon passes is not tokenized.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from typing import Any, Iterable, Iterator, NamedTuple, Union

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
    "Tokens",
    "TagSequence",
    "disjoint_spans",
    "tokenize",
    "Lexicon",
    "longest_matches",
    "spans_to_bio",
    "bio_to_spans",
]

# Word runs keep a leading # or @ (hashtags, mentions) and internal
# apostrophes (contractions such as "don't", "there's"). Every other
# non-space character becomes a single-character token. The one capturing
# group holds the whole token, so split alternates gaps and tokens.
#
# The split is that of "([#@]\w+(?:['’]\w+)*|\w+(?:['’]\w+)*|[^\w\s])",
# found about 20% sooner. The lookahead refuses only a whitespace start,
# where each branch fails too, and costs the engine one check there instead
# of three failing branches. The \w and [#@] branches start on disjoint
# characters, so their order is free, and [#@] still precedes [^\w\s], so a
# mark before a word stays on it. Possessive forms (\w++) are faster still
# but do not compile on Python 3.10, which the package supports.
_TOKEN_RE = re.compile(r"(?=\S)(\w+(?:['’]\w+)*|[#@]\w+(?:['’]\w+)*|[^\w\s])")

# Over UTF-8 bytes: an ASCII word character (\w of a bytes pattern: a letter,
# a digit or _) kept and every other byte made a space, whitespace too:
# bytes.split() splits only at space, \t, \n, \v, \f and \r, where
# str.split() and \s also split at \x1c-\x1f.
_WORD_BYTES = bytes(
    byte if chr(byte).isascii() and (chr(byte).isalnum() or byte == 0x5F) else 0x20
    for byte in range(256)
)

#: The longest text :func:`may_match` checks; a longer one passes to every lexicon.
#: :func:`~adescope.scope.prefilter` keys a longer text a slice at a time,
#: the first slice this long.
_PREFIX_CHARS = 1024


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

    ``__init__`` sets every attribute once, through :meth:`_set`; a lazy one
    is a :func:`functools.cached_property`, kept in the instance ``__dict__``.
    Assigning or deleting one raises :class:`AttributeError`. The repr is
    ``Name(field=…)`` over ``_FIELDS``, a field not yet set (its ``__init__``
    raised first) shown as ``<unset>``, and two instances of one class are
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
        shown = ", ".join([
            f"{name}={getattr(self, name)!r}" if hasattr(self, name) else f"{name}=<unset>"
            for name in self._FIELDS
        ])
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


# The one empty span set: most samples and predictions hold no span, and an
# empty frozenset of their own costs each 216 bytes.
_NO_SPANS: frozenset = frozenset()


def frozen_spans(spans: Iterable[Span]) -> frozenset[Span]:
    """``spans`` as a frozenset, every empty one the same object. An exact
    frozenset is returned as it is: ``frozenset()`` of one makes no copy."""
    return frozenset(spans) or _NO_SPANS


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


_ADE = SampleClass.ADE

#: Each class's letter, as files and reports write it, read per row from a dict.
CLASS_LETTER = {cls: cls.value for cls in SampleClass}

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
        gold_spans = frozen_spans(gold_spans)
        if not gold_spans:
            if sample_class is _ADE:
                raise ValidationError(
                    f"sample {echo(text.id)}: class A requires at least one gold span"
                )
            return tuple.__new__(cls, (text, gold_spans, sample_class))
        length = len(text.content)
        for span in gold_spans:
            if span.end > length:
                raise ValidationError(
                    f"sample {echo(text.id)}: span {echo_span(*span)} "
                    f"exceeds text length {length}"
                )
        if sample_class is not _ADE:
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

# Over a tag sequence joined into one string (each tag is one character), a
# span is a run of B or I continued by I's, and an I dangles, continuing no
# span, when it opens the sequence or follows an O.
_RUN_RE = re.compile("[BI]I*")
_DANGLING_I_RE = re.compile("(?<![BI])I")


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
        """True when no I tag dangles: each follows a B or an I."""
        return _DANGLING_I_RE.search("".join(self.tags)) is None

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tags)

    def __getitem__(self, position: int) -> str:
        return self.tags[position]


class Tokens(Frozen, Sequence):
    """The tokens of one text, read from one ``re.split`` of it.

    The split alternates gaps and tokens: gap, token, gap, ..., token, gap.
    :attr:`keys` holds every token's match key (see :func:`_keys`),
    :meth:`surface` and :meth:`gap` read the split's parts, and
    :meth:`span` turns a run of token positions into character offsets from
    the running lengths of the parts, computed on first use. :class:`Token`
    values are built, all at once, only when the sequence is indexed or
    iterated; it then equals the list of them, so ``Tokens("") == []``.
    """

    _FIELDS = ("content",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, text: Union[str, RawText]) -> None:
        content = text.content if isinstance(text, RawText) else text
        parts = _TOKEN_RE.split(content)
        self._set(content=content, parts=parts, keys=_keys(parts[1::2]))

    @cached_property
    def _ends(self) -> list[int]:
        """The running lengths of the parts: token starts at even positions
        and token ends at odd ones."""
        return list(accumulate(map(len, self.parts)))

    @cached_property
    def _tokens(self) -> list[Token]:
        # A token is a non-empty match, so its offsets are a valid span by
        # construction and are built unchecked.
        ends = self._ends
        spans = map(tuple.__new__, repeat(Span), zip(ends[0::2], ends[1::2]))
        return list(map(tuple.__new__, repeat(Token), zip(self.parts[1::2], spans)))

    def surface(self, position: int) -> str:
        """The text of the token at ``position``."""
        return self.parts[2 * position + 1]

    def gap(self, position: int) -> str:
        """The text between the token at ``position`` and the next one, or
        the end of the text."""
        return self.parts[2 * position + 2]

    def span(self, first: int, last: int) -> Span:
        """The character span that tokens ``first..last`` (inclusive) cover."""
        ends = self._ends
        return Span(ends[2 * first], ends[2 * last + 1])

    def __len__(self) -> int:
        return len(self.parts) // 2

    def __getitem__(self, position: Union[int, slice]) -> Union[Token, list[Token]]:
        return self._tokens[position]

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tokens):
            other = other._tokens
        return self._tokens == other if isinstance(other, list) else NotImplemented


def tokenize(text: Union[str, RawText]) -> Tokens:
    """Split text into tokens; offsets index into the original string.

    Whitespace separates tokens and is never part of one. Punctuation is
    split from adjacent word characters, except a leading # or @ (hashtags
    and mentions) and apostrophes inside contractions. Empty input yields
    no tokens.
    """
    return Tokens(text)


def _keys(surfaces: Iterable[str]) -> tuple[str, ...]:
    """The match key of each token surface: casefolded, curly apostrophes
    straightened and a leading hashtag marker dropped, so that "#Headache"
    compares equal to the lexicon entry "headache". Mention markers are
    kept: usernames are names, not words. Lexicon entries are tokenized as
    written and keyed here too, so this is the one place case is folded:
    folding before tokenizing could change where tokens break ("İ" folds
    to "i" and a combining mark, which is not a word character).

    The surfaces are keyed together in one pass over them joined by " ",
    which drops the marker of every hashtag after a space; the first key
    then drops its own. That is exact: no surface holds a space,
    ``str.casefold`` maps each code point on its own, and no code point but
    the character itself folds to " ", "#" or "’".
    """
    joined = " ".join(surfaces)
    if not joined:
        return ()
    keys = joined.casefold().replace("’", "'").replace(" #", " ").split(" ")
    if keys[0].startswith("#"):
        keys[0] = keys[0][1:]
    return tuple(keys)


def text_words(text: str) -> list[bytes]:
    """The runs of ASCII word characters in ``text.casefold()``, as bytes,
    in four C-level passes: ``str.casefold``, ``str.encode``,
    ``bytes.translate`` and ``bytes.split``.

    A token's key is its surface casefolded, and ``str.casefold`` maps each
    code point on its own, so a key that holds a word has its first word
    among the text's: as a test checks at every code point, no non-word
    character, such as those next to a token, folds to an ASCII word
    character, no word character folds to an ASCII non-word one, and a
    folded key folds to itself.
    """
    return text.casefold().encode().translate(_WORD_BYTES).split()


class Lexicon(Frozen):
    """Checked ``(pattern, value)`` entries, indexed for
    :func:`longest_matches` and the word gate (:func:`may_match`).

    :attr:`values` holds the values in order, and :attr:`depth` the most
    keys a pattern holds. Each pattern is keyed as written, exactly as a
    text is (:attr:`Tokens.keys`), into a trie where each key steps one level
    down and the node where a pattern ends maps " " to its value. A pattern
    that holds no token, or that is keyed like an earlier one, could never
    match, so it is a :class:`ValidationError` as its entry is read: the one
    rule for which lexicon entries are kept. The gate reads the first of
    each root key's :func:`text_words`; a root key with no word (``"?"``,
    ``"é"``, the ``""`` of a lone ``#``) lets every text through.
    """

    _FIELDS = ("values",)

    def __init__(self, entries: Iterable[tuple[str, Any]]) -> None:
        values: list = []
        root: dict[str, Any] = {}
        depth = 0
        for pattern, value in entries:
            keys = Tokens(pattern).keys
            if not keys:
                raise ValidationError(f"lexicon entry {echo(pattern)} holds no token")
            node = root
            for key in keys:
                node = node.setdefault(key, {})
            if " " in node:
                raise ValidationError(
                    f"duplicate lexicon entry {echo(pattern)}: "
                    f"an earlier entry has the match keys {echo(' '.join(keys))}"
                )
            node[" "] = value
            values.append(value)
            depth = max(depth, len(keys))
        words = [text_words(key) for key in root]
        firsts = None if [] in words else frozenset(split[0] for split in words)
        self._set(values=tuple(values), depth=depth, _index=root, _first_words=firsts)


def may_match(text: str, lexicons: Iterable[Lexicon]) -> list[Lexicon]:
    """The word gate in front of every lexicon scan: the lexicons that may
    match in ``text``, in order. For a text of at most ``_PREFIX_CHARS``
    characters, those whose first words (see :class:`Lexicon`) hold none of
    its :func:`text_words` are dropped: no key of its tokens is a root key
    of their tries. A text no lexicon passes need not be tokenized."""
    if len(text) > _PREFIX_CHARS:
        return list(lexicons)
    words = text_words(text)
    passed = []  # a loop: a comprehension's own frame costs more than the check
    for lexicon in lexicons:
        firsts = lexicon._first_words
        if firsts is None or not firsts.isdisjoint(words):
            passed.append(lexicon)
    return passed


def longest_matches(keys: tuple[str, ...], lexicon: Lexicon) -> list[tuple[int, int, Any]]:
    """Greedy leftmost-longest, non-overlapping pattern matches over match keys.

    A key run matches a pattern when it equals the pattern's keys. At each
    position the longest pattern starting there wins and the scan resumes
    after it. Returns ``(first, last, value)`` in order; ``first`` and
    ``last`` are inclusive token positions. A match starts only at a key of
    the lexicon's trie's root, so keys disjoint from those match nothing.
    From there the trie is walked while the keys follow it, and the deepest
    pattern end passed wins. A scan costs about N·L_max for N keys and L_max
    keys in the longest pattern, whatever the lexicon's size, so a pattern of
    thousands of keys that a text follows far is still slow.
    """
    index = lexicon._index
    matches: list[tuple[int, int, Any]] = []
    resume = 0  # the first position after the last match
    for position, key in enumerate(keys):
        if key in index and position >= resume:
            node, match = index, None
            for last in range(position, len(keys)):
                if (node := node.get(keys[last])) is None:
                    break
                if " " in node:
                    match = (position, last, node[" "])
            if match is not None:
                matches.append(match)
                resume = match[1] + 1
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
    return TagSequence(tags)


def bio_to_spans(
    tokens: Sequence[Token],
    tags: Union[TagSequence, Sequence[str]],
    strict: bool = False,
) -> set[Span]:
    """Recover character spans from BIO tags over tokens.

    Each run of ``[BI]I*`` in the tags becomes one span, from its first
    token's start to its last token's end. A dangling I, one not after a B
    or an I, opens a run as the B it is repaired to; with ``strict=True``
    the first one raises instead. Token-boundary-aligned spans round-trip
    exactly through :func:`spans_to_bio`.
    """
    joined = "".join(TagSequence(tags).tags)
    if len(joined) != len(tokens):
        raise ValidationError(f"{len(joined)} tags for {len(tokens)} tokens")
    if strict and (dangling := _DANGLING_I_RE.search(joined)):
        raise ValidationError(
            f"ill-formed tag sequence: I at position {dangling.start()} "
            "does not continue a span"
        )
    return {
        Span(tokens[run.start()].span.start, tokens[run.end() - 1].span.end)
        for run in _RUN_RE.finditer(joined)
    }
