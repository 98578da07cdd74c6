from __future__ import annotations

import re
import string
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from adescope import (
    LabeledSample,
    RawText,
    SampleClass,
    Span,
    TagSequence,
    Token,
    ValidationError,
    bio_to_spans,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    load_corpus,
    match_spans,
    spans_to_bio,
    tokenize,
)
from adescope.text import _TOKEN_RE, Lexicon, longest_matches, may_match, text_words


def surfaces(text: str) -> list[str]:
    return [t.surface for t in tokenize(text)]


class TestSpan:
    def test_orders_by_start_then_end(self):
        assert sorted([Span(5, 9), Span(0, 3), Span(0, 2)]) == [
            Span(0, 2),
            Span(0, 3),
            Span(5, 9),
        ]

    @pytest.mark.parametrize("start,end", [(-1, 4), (3, 3), (5, 2)])
    def test_rejects_degenerate_intervals(self, start, end):
        for build in (
            lambda: Span(start, end),
            lambda: Span._make((start, end)),
            lambda: Span(0, 9)._replace(start=start, end=end),
        ):
            with pytest.raises(ValidationError) as caught:
                build()
            assert str(caught.value) == f"invalid span [{start}, {end})"

    def test_a_long_offset_is_echoed_cut(self):
        huge = 10**60
        with pytest.raises(ValidationError) as caught:
            Span(huge, 5)
        assert str(caught.value) == f"invalid span [{str(huge)[:40]}…, 5)"

    def test_is_a_start_end_tuple(self):
        span = Span(0, 3)
        assert (span.start, span.end) == span == (0, 3)
        assert hash(span) == hash((0, 3))

    def test_tokenize_builds_the_spans_the_checked_constructor_would(self, corpus_dir):
        built = [
            token.span
            for sample in load_corpus(corpus_dir / "test.tsv").samples
            for token in tokenize(sample.text)
        ]
        checked = [Span(start, end) for start, end in built]
        assert all(type(span) is Span for span in built)
        assert built == checked
        assert list(map(hash, built)) == list(map(hash, checked))
        positions = range(len(built))
        assert sorted(positions, key=built.__getitem__) == sorted(positions, key=checked.__getitem__)


class TestRawText:
    def test_rejects_blank_content(self):
        with pytest.raises(ValidationError):
            RawText("t1", "   ")

    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError):
            RawText("", "hello")


class TestLabeledSample:
    def test_class_a_requires_spans(self):
        with pytest.raises(ValidationError):
            LabeledSample(RawText("t", "some text"), frozenset(), SampleClass.ADE)

    @pytest.mark.parametrize("cls", [SampleClass.NO_ADE, SampleClass.NEGATED, SampleClass.SPECULATED])
    def test_other_classes_must_be_spanless(self, cls):
        with pytest.raises(ValidationError):
            LabeledSample(RawText("t", "some text"), frozenset({Span(0, 4)}), cls)

    def test_rejects_out_of_bounds_span(self):
        with pytest.raises(ValidationError):
            LabeledSample(RawText("t", "tiny"), frozenset({Span(0, 10)}), SampleClass.ADE)

    def test_rejects_overlapping_gold(self):
        with pytest.raises(ValidationError):
            LabeledSample(
                RawText("t", "a longer text here"),
                frozenset({Span(0, 5), Span(3, 8)}),
                SampleClass.ADE,
            )


@st.composite
def split_texts(draw):
    """Words, marks and non-ASCII words between gaps of spaces, tabs, lone
    carriage returns and line breaks, or none."""
    words = draw(st.lists(st.sampled_from([
        "no", "PAIN", "don’t", "CAN’T", "#Nausea", "@doc", "#’", "café", "ΟΔΟΣ", "日本",
        "straße", "x2", ".", "…", ",", "’", "#", "@",
    ]), max_size=12))
    gaps = draw(st.lists(
        st.sampled_from([" ", "", "\r", "\r\n", "\t", "\n", " \t "]),
        min_size=len(words) + 1, max_size=len(words) + 1,
    ))
    return gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))


class TestTokenize:
    def test_empty_text_yields_no_tokens(self):
        assert tokenize("") == []

    def test_offsets_on_plain_words(self):
        tokens = tokenize("no pain no inflammation")
        assert [(t.surface, t.span.start, t.span.end) for t in tokens] == [
            ("no", 0, 2),
            ("pain", 3, 7),
            ("no", 8, 10),
            ("inflammation", 11, 23),
        ]

    def test_hashtags_keep_their_marker(self):
        tokens = tokenize("#restlesslegs #quetiapine")
        assert [(t.surface, t.span.start, t.span.end) for t in tokens] == [
            ("#restlesslegs", 0, 13),
            ("#quetiapine", 14, 25),
        ]

    def test_mentions_and_contractions_stay_whole(self):
        assert surfaces("@UKingsbrook That's correct!") == [
            "@UKingsbrook",
            "That's",
            "correct",
            "!",
        ]

    def test_punctuation_splits_from_words(self):
        assert surfaces("pain, then gone...") == [
            "pain", ",", "then", "gone", ".", ".", ".",
        ]

    @given(st.text(max_size=100))
    def test_surfaces_match_their_slices_and_gaps_are_whitespace(self, text):
        tokens = tokenize(text)
        cursor = 0
        for token in tokens:
            assert text[token.span.start : token.span.end] == token.surface
            assert text[cursor : token.span.start].strip() == ""
            cursor = token.span.end
        assert text[cursor:].strip() == ""

    @given(
        st.lists(
            st.sampled_from(list("aZéß日٣_'’#@＃!.-") + [" ", "\n", "\r", "\t", "\u00a0", "\u2028"])
            | st.characters(),
            max_size=40,
        ).map("".join)
    )
    @example("")
    @example("I CAN’T SLEEP #nausea @Dr_Who's\n\nno pain...")
    @example("#'a ’b @#c d’’e f'")
    def test_tokens_equal_a_match_per_token(self, text):
        reference = re.compile(r"[#@]\w+(?:['’]\w+)*|\w+(?:['’]\w+)*|[^\w\s]")
        tokens = tokenize(text)
        assert tokens == [Token(m.group(), Span(*m.span())) for m in reference.finditer(text)]
        assert all(type(t) is Token and type(t.span) is Span for t in tokens)

    @given(split_texts())
    @example("")
    @example("no\rpain\r\n#Rash\t’")
    def test_the_split_gives_the_tokens_keys_spans_and_gaps(self, text):
        tokens = tokenize(text)
        expected = [Token(m.group(), Span(*m.span())) for m in _TOKEN_RE.finditer(text)]
        assert list(tokens) == expected
        assert len(tokens) == len(expected)
        assert tokens.keys == tuple(naive_key(token.surface) for token in expected)
        for first in range(len(tokens)):
            for last in range(first, len(tokens)):
                assert tokens.span(first, last) == Span(
                    expected[first].span.start, expected[last].span.end
                )
        ends = [token.span.start for token in expected[1:]] + [len(text)]
        for position, (token, end) in enumerate(zip(expected, ends)):
            assert tokens.surface(position) == token.surface
            assert tokens.gap(position) == text[token.span.end : end]

    def test_builds_tokens_only_when_read(self):
        tokens = tokenize("no pain")
        assert tokens.keys == ("no", "pain") and len(tokens) == 2
        assert "_tokens" not in vars(tokens) and "_ends" not in vars(tokens)
        assert tokens.span(1, 1) == Span(3, 7)
        assert "_ends" in vars(tokens) and "_tokens" not in vars(tokens)
        assert tokens[1] == Token("pain", Span(3, 7))
        assert vars(tokens)["_tokens"] is tokens._tokens
        for name in ("_ends", "_tokens", "keys"):
            with pytest.raises(AttributeError):
                setattr(tokens, name, [])
            with pytest.raises(AttributeError):
                delattr(tokens, name)
        assert tokens == tokenize("no pain") == list(tokens)
        with pytest.raises(TypeError):
            hash(tokens)


def make_tokens(*pairs: tuple[int, int]) -> list[Token]:
    return [Token(f"t{i}", Span(s, e)) for i, (s, e) in enumerate(pairs)]


class TestBio:
    def test_metoprolol_projection(self):
        tokens = tokenize("Metoprolol is NOT known to cause hypokalemia")
        tags = spans_to_bio(tokens, [Span(33, 44)])
        assert list(tags) == ["O", "O", "O", "O", "O", "O", "B"]

    def test_multi_token_span_gets_b_then_i(self):
        tokens = make_tokens((0, 2), (3, 6), (7, 9), (10, 14))
        tags = spans_to_bio(tokens, [Span(0, 6), Span(10, 14)])
        assert list(tags) == ["B", "I", "O", "B"]

    def test_partially_covered_token_counts_as_inside(self):
        tokens = make_tokens((0, 5), (6, 9))
        assert list(spans_to_bio(tokens, [Span(3, 7)])) == ["B", "I"]

    def test_rejects_overlapping_spans(self):
        tokens = make_tokens((0, 2), (3, 6))
        with pytest.raises(ValidationError):
            spans_to_bio(tokens, [Span(0, 4), Span(3, 6)])

    def test_bio_to_spans_reads_runs(self):
        tokens = make_tokens((0, 2), (3, 6), (7, 9), (10, 14))
        assert bio_to_spans(tokens, ["B", "I", "O", "B"]) == {Span(0, 6), Span(10, 14)}

    def test_lenient_mode_repairs_dangling_i(self):
        tokens = make_tokens((0, 2), (3, 6), (7, 9))
        assert bio_to_spans(tokens, ["O", "I", "I"]) == {Span(3, 9)}

    def test_strict_mode_rejects_dangling_i(self):
        tokens = make_tokens((0, 2), (3, 6))
        with pytest.raises(ValidationError):
            bio_to_spans(tokens, ["O", "I"], strict=True)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bio_to_spans(make_tokens((0, 2)), ["B", "I"])

    def test_bio_to_spans_rejects_unknown_tags(self):
        with pytest.raises(ValidationError, match=r"invalid BIO tags: \['Q'\]"):
            bio_to_spans(make_tokens((0, 2), (3, 6)), ["B", "Q"])

    @pytest.mark.parametrize(
        "check,message",
        [
            (
                lambda spans: LabeledSample(RawText("t", "x" * 10), spans, SampleClass.ADE),
                "sample 't': gold spans [0, 5) and [3, 8) overlap",
            ),
            (
                lambda spans: spans_to_bio(make_tokens((0, 2), (3, 6)), spans),
                "spans [0, 5) and [3, 8) overlap",
            ),
            (lambda spans: match_spans(spans, []), "gold spans [0, 5) and [3, 8) overlap"),
        ],
        ids=["sample", "spans_to_bio", "match_spans"],
    )
    def test_overlap_messages_name_the_pair(self, check, message):
        with pytest.raises(ValidationError) as caught:
            check(frozenset({Span(3, 8), Span(0, 5)}))
        assert str(caught.value) == message

    def test_overlap_message_echoes_long_offsets_cut(self):
        huge = 10**60
        shown = str(huge)[:40] + "…"
        with pytest.raises(ValidationError) as caught:
            spans_to_bio([], {Span(huge, huge + 5), Span(huge + 3, huge + 8)})
        assert str(caught.value) == f"spans [{shown}, {shown}) and [{shown}, {shown}) overlap"

    def test_unknown_tags_are_echoed_cut(self):
        with pytest.raises(ValidationError) as caught:
            TagSequence(("B", "Q" * 100))
        assert str(caught.value) == f"invalid BIO tags: ['{'Q' * 38}…"

    def test_tag_sequence_validates_alphabet(self):
        with pytest.raises(ValidationError):
            TagSequence(("B", "Q"))
        assert TagSequence(("B", "I", "O")).is_well_formed
        assert not TagSequence(("I", "O")).is_well_formed
        assert not TagSequence(("O", "I")).is_well_formed

    def test_tag_sequence_indexes_its_tags(self):
        tags = TagSequence(("B", "I", "O"))
        assert (tags[0], tags[1], tags[-1]) == ("B", "I", "O")
        with pytest.raises(IndexError):
            tags[3]


@st.composite
def tokens_with_aligned_spans(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    tokens = []
    cursor = 0
    for i in range(count):
        cursor += draw(st.integers(min_value=0, max_value=2)) + (1 if i else 0)
        width = draw(st.integers(min_value=1, max_value=5))
        tokens.append(Token(f"t{i}", Span(cursor, cursor + width)))
        cursor += width
    spans = []
    i = 0
    while i < count:
        if draw(st.booleans()):
            j = min(count - 1, i + draw(st.integers(min_value=0, max_value=2)))
            spans.append(Span(tokens[i].span.start, tokens[j].span.end))
            i = j + 1
        else:
            i += 1
    return tokens, spans


class TestBioProperties:
    @given(tokens_with_aligned_spans())
    def test_round_trip_on_aligned_spans(self, case):
        tokens, spans = case
        assert bio_to_spans(tokens, spans_to_bio(tokens, spans)) == set(spans)

    @given(tokens_with_aligned_spans())
    def test_projection_is_well_formed(self, case):
        tokens, spans = case
        assert spans_to_bio(tokens, spans).is_well_formed


def reference_bio_to_spans(tokens, tags, strict=False):
    """The token-by-token state machine that once decoded BIO tags: the
    oracle for ``bio_to_spans``, kept as it was."""
    sequence = TagSequence(tags).tags
    if len(sequence) != len(tokens):
        raise ValidationError(f"{len(sequence)} tags for {len(tokens)} tokens")
    spans = set()
    run_start = None
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


def reference_is_well_formed(tags) -> bool:
    previous = "O"
    for tag in tags:
        if tag == "I" and previous == "O":
            return False
        previous = tag
    return True


def outcome(decode, *args):
    """What ``decode(*args)`` returns, or the type and message it raises."""
    try:
        return decode(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


@st.composite
def tagged_tokens(draw):
    """Any B/I/O sequence, empty included, over tokens of drawn widths and
    gaps: as many tokens as tags, or now and then one fewer or one more."""
    tags = draw(st.lists(st.sampled_from("BIO"), max_size=12))
    count = max(0, len(tags) + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
    tokens, cursor = [], 0
    for i in range(count):
        cursor += draw(st.integers(min_value=1, max_value=2))
        width = draw(st.integers(min_value=1, max_value=3))
        tokens.append(Token(f"t{i}", Span(cursor, cursor + width)))
        cursor += width
    return tokens, tags


class TestBioOracle:
    """``bio_to_spans`` and ``is_well_formed`` agree with the state machine on
    every tag sequence, ill-formed ones included."""

    @settings(max_examples=500)
    @given(tagged_tokens(), st.booleans())
    @example(([], []), True)
    @example((make_tokens((0, 1), (2, 3)), ["I", "I"]), False)
    @example((make_tokens((0, 1), (2, 3)), ["I", "I"]), True)
    @example((make_tokens((0, 1), (2, 3), (4, 5)), ["B", "O", "I"]), True)
    @example((make_tokens((0, 1), (2, 3), (4, 5)), ["B", "I", "B"]), True)
    @example((make_tokens((0, 1), (2, 3), (4, 5), (6, 7)), ["O", "I", "O", "I"]), False)
    @example((make_tokens((0, 1)), ["I", "O"]), True)
    def test_decoding_matches_the_state_machine(self, case, strict):
        tokens, tags = case
        expected = outcome(reference_bio_to_spans, tokens, tags, strict)
        assert outcome(bio_to_spans, tokens, tags, strict) == expected
        assert outcome(bio_to_spans, tokens, TagSequence(tags), strict) == expected
        assert TagSequence(tags).is_well_formed is reference_is_well_formed(tags)


# Pieces of gate texts and patterns: ASCII words and marks, and pieces whose
# casefold changes length or token boundaries ("ß" -> "ss", "İ" -> "i" +
# U+0307, U+0345 -> "ι"), that lower() would fold by context ("Σ"), or that
# key differently from their surface ("’"; "＃" is not a hashtag marker).
ASCII_WORDS = ["no", "NO", "pain", "Pain", "don't", "DON'T", "s", "7", "_x", "strasse"]
OTHER_WORDS = [
    "don’t", "straße", "STRASSE", "İx", "i\u0307x", "x\u0345", "ι", "é", "CAFÉ", "ΟΔΟΣ", "ς",
]
MARKS = ["#", "@", "'", "’", ".", "-", "＃"]


@st.composite
def gate_case(draw, pieces):
    """A text joined from pieces, and one to three indexes of patterns that
    are mostly runs of the text itself, sometimes behind a mark."""
    parts = draw(st.lists(
        st.tuples(st.sampled_from(pieces), st.sampled_from([" ", "", "\n"])),
        min_size=1, max_size=8,
    ))
    text = "".join(piece + sep for piece, sep in parts)

    def pattern():
        lead = draw(st.sampled_from(["", "", "", *MARKS]))
        first = draw(st.integers(0, len(parts) - 1))
        run = parts[first : first + draw(st.integers(1, 2))]
        return draw(st.one_of(
            st.just(lead + "".join(piece + sep for piece, sep in run).strip()),
            st.sampled_from(ASCII_WORDS + OTHER_WORDS).map(lambda word: lead + word),
            st.just("#"),
        ))

    indexes = [
        [pattern() for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return text, indexes


def naive_key(surface: str) -> str:
    word = surface.casefold().replace("’", "'")
    return word[1:] if word.startswith("#") else word


def root_keys(patterns: Iterable[str]) -> set[str]:
    """The first key of each pattern: the root keys of a lexicon's trie."""
    return {tokenize(pattern).keys[0] for pattern in patterns}


class TestMatchable:
    """The lexicon gate: a text's keys are the keys of its tokens, and a
    lexicon whose root keys are disjoint from them has no match, nor does
    one the word gate drops. Patterns that key alike are refused; the gate
    is then checked on the first pattern of each key sequence."""

    @settings(max_examples=400)
    @given(st.one_of(
        gate_case(ASCII_WORDS + [mark for mark in MARKS if mark.isascii()]),
        gate_case(ASCII_WORDS + OTHER_WORDS + MARKS),
    ))
    @example(("a # b", [["#"]]))
    @example(("x\u0345", [["ι"]]))
    @example(("İx", [["İx"]]))
    @example(("I DON’T", [["don't"]]))
    @example(("STRAßE #ß", [["strasse"], ["ss"]]))
    @example(("ΟΔΟΣ οδος #ς", [["οδοσ"], ["σ"]]))
    @example(("＃pain #＃ ＃", [["pain"], ["＃pain"], ["＃"]]))
    def test_a_dropped_index_has_no_match(self, case):
        text, pattern_lists = case
        keys = tokenize(text).keys
        assert keys == tuple(naive_key(t.surface) for t in tokenize(text))
        for patterns in pattern_lists:
            first = {}  # each pattern's keys to the first pattern keyed so
            for pattern in patterns:
                first.setdefault(tokenize(pattern).keys, pattern)
            if len(first) < len(patterns):
                with pytest.raises(ValidationError):
                    Lexicon((p, p) for p in patterns)
            lexicon = Lexicon((p, p) for p in first.values())
            assert lexicon.values == tuple(first.values())
            disjoint = root_keys(first.values()).isdisjoint(keys)
            if disjoint:
                assert longest_matches(keys, lexicon) == []
            if not may_match(text, [lexicon]):
                assert disjoint

    @pytest.mark.parametrize("pattern", ["", "  ", "\t\n"])
    def test_a_pattern_without_a_token_is_refused(self, pattern):
        # Its value would sit at the trie's root, where no match reaches it,
        # and no first word could be read from such a root.
        with pytest.raises(ValidationError) as caught:
            Lexicon([("no", 1), (pattern, 2), ("rash", 3)])
        assert str(caught.value) == f"lexicon entry {pattern!r} holds no token"
        lexicon = Lexicon([("no", 1), ("#", 2)])
        assert lexicon.values == (1, 2)
        assert longest_matches(tokenize("# no").keys, lexicon) == [(0, 0, 2), (1, 1, 1)]

    def test_depth_is_the_most_keys_an_entry_holds(self):
        assert Lexicon([("no", 1), ("#No way!", 2), ("don’t", 3)]).depth == 3

    def test_no_code_point_folds_to_a_key_separator_or_mark(self):
        # _keys casefolds a text's surfaces joined by " " in one call and
        # then splits on " " and strips " #": exact only if casefold maps
        # each code point on its own and nothing else folds to " ", "#" or "’".
        chars = [chr(point) for point in range(0x110000)]
        folded = [char.casefold() for char in chars]
        assert "".join(chars).casefold() == "".join(folded)
        for mark in " #’":
            assert [c for c, f in zip(chars, folded) if mark in f] == [mark]

    def test_no_code_point_folds_across_an_ascii_word_boundary(self):
        # text_words reads a key's first word in the casefolded text, as a
        # whole run of ASCII word characters; sound only if the non-word
        # characters around a token fold to no ASCII word character, a word
        # character folds to no ASCII non-word character, and a key, already
        # folded, folds to itself.
        word = re.compile(r"\w").match
        ascii_words = set(string.ascii_letters + string.digits + "_")
        glued, broken, refolded = [], [], []
        for char in map(chr, range(0x110000)):
            folded = char.casefold()
            ascii = {c for c in folded if c.isascii()}
            if not word(char) and ascii & ascii_words:
                glued.append(char)
            if word(char) and ascii - ascii_words:
                broken.append(char)
            if folded.casefold() != folded:
                refolded.append(char)
        assert (glued, broken, refolded) == ([], [], [])

    @pytest.mark.parametrize(
        "lexicon",
        [default_negation_lexicon(), default_speculation_lexicon(), default_ade_lexicon()],
        ids=["negation", "speculation", "ade"],
    )
    def test_bundled_lexicons_pass_exactly_the_texts_holding_a_first_key(
        self, lexicon, corpus_dir
    ):
        # The word gate in front of the scan may reject a text only when none
        # of its keys is a root key, and it does reject some.
        corpus = load_corpus(corpus_dir / "test.tsv")
        roots = root_keys(getattr(value, "pattern", value) for value in lexicon.values)
        rejected = 0
        for sample in corpus.samples:
            walked = any(naive_key(t.surface) in roots for t in tokenize(sample.text))
            gated = not roots.isdisjoint(tokenize(sample.text).keys)
            assert gated == walked, sample.text.id
            if not may_match(sample.text.content, (lexicon,)):
                rejected += 1
                assert not gated, sample.text.id
        assert rejected > 0


# The reference for text_words' byte table: the word rule over str. Over
# ASCII, \w lowercased, every other non-space character made a space, and
# whitespace (\x1c-\x1f included) kept for str.split() to split at.
STR_WORD_TABLE = str.maketrans({
    c: c.lower() if c.isalnum() or c == "_" else " "
    for c in map(chr, range(128)) if not c.isspace()
})


class TestTextWords:
    def test_the_byte_table_follows_the_str_rule_at_every_ascii_code_point(self):
        # Each code point alone, between two letters and before an upper-case
        # letter: a word character joins a run and is lowercased; any other
        # character, \x1c-\x1f included, splits the run.
        wrong = []
        for char in map(chr, range(128)):
            for text in (char, f"a{char}b", f"{char}B"):
                expected = [word.encode() for word in text.translate(STR_WORD_TABLE).split()]
                if text_words(text) != expected:
                    wrong.append((text, text_words(text), expected))
        assert wrong == []

    @pytest.mark.parametrize(
        "text,words",
        [
            ("café au lait", [b"caf", b"au", b"lait"]),
            ("\u017fo", [b"so"]),
            ("\u212a", [b"k"]),
            ("no\xa0rash", [b"no", b"rash"]),
        ],
        ids=["café au lait", "\u017fo", "\u212a", "no\xa0rash"],
    )
    def test_a_non_ascii_text_has_the_words_of_its_casefold(self, text, words):
        # Each byte of a non-ASCII character splits a run, and letters that
        # fold to ASCII ("ſ", the Kelvin sign) join one.
        assert text_words(text) == words
