from __future__ import annotations

import re

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
from adescope.text import index_patterns, longest_matches, text_keys, token_keys


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


class TestMatchable:
    """The tokenize gate: a text's keys, found without tokenizing it, are the
    keys of its tokens, and an index disjoint from them has no match."""

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
        tokens = tokenize(text)
        keys = text_keys(text)
        assert keys == tuple(naive_key(t.surface) for t in tokens)
        assert token_keys(tokens) == keys
        for patterns in pattern_lists:
            index = index_patterns((p, p) for p in patterns)
            if index.keys().isdisjoint(keys):
                assert longest_matches(keys, index) == []

    def test_no_code_point_folds_to_a_key_separator_or_mark(self):
        # text_keys casefolds a text's surfaces joined by " " in one call and
        # then splits on " " and strips " #": exact only if casefold maps
        # each code point on its own and nothing else folds to " ", "#" or "’".
        chars = [chr(point) for point in range(0x110000)]
        folded = [char.casefold() for char in chars]
        assert "".join(chars).casefold() == "".join(folded)
        for mark in " #’":
            assert [c for c, f in zip(chars, folded) if mark in f] == [mark]

    @pytest.mark.parametrize(
        "lexicon",
        [default_negation_lexicon(), default_speculation_lexicon(), default_ade_lexicon()],
        ids=["negation", "speculation", "ade"],
    )
    def test_bundled_lexicons_pass_exactly_the_texts_holding_a_first_key(
        self, lexicon, corpus_dir
    ):
        corpus = load_corpus(corpus_dir / "test.tsv")
        index = lexicon._index
        for sample in corpus.samples:
            walked = any(naive_key(t.surface) in index for t in tokenize(sample.text))
            gated = not index.keys().isdisjoint(text_keys(sample.text))
            assert gated == walked, sample.text.id
