"""Filtering, matching and BIO projection on one long post stay near-linear
in its length, and term extraction locates every match in one.

The post has 10,000 sentences, each 100 characters wide, with one scope,
one prediction, one gold span and one matched prediction per sentence. An
all-pairs scan does on the order of 10,000 x 10,000 overlap tests in each
step; the sweeps do a few per span.
"""

from __future__ import annotations

import time

from adescope import (
    Cue,
    CueCategory,
    CueMatch,
    EntitySet,
    MatchKind,
    Phenomenon,
    RawText,
    ScopeSpan,
    Span,
    Token,
    bio_to_spans,
    default_ade_lexicon,
    extract,
    filter_by_scopes,
    match_spans,
    spans_to_bio,
    tokenize,
)
from adescope.text import longest_matches, token_keys, token_span

SENTENCES = 10_000
WIDTH = 100


def sentence_span(index: int, start: int, end: int) -> Span:
    return Span(index * WIDTH + start, index * WIDTH + end)


def test_filter_and_match_scale_with_post_length():
    cue = Cue("no", CueCategory.PRE_TRIGGER, Phenomenon.NEGATION)
    scopes = [
        ScopeSpan(
            sentence_span(i, 10, 40),
            CueMatch(cue, sentence_span(i, 5, 7), 0, 0),
            Phenomenon.NEGATION,
        )
        for i in range(SENTENCES)
    ]
    # Every fourth sentence puts its prediction inside the scope, the rest after it.
    ades = EntitySet(
        "post",
        frozenset(
            sentence_span(i, 20, 30) if i % 4 == 0 else sentence_span(i, 50, 60)
            for i in range(SENTENCES)
        ),
    )
    gold = [sentence_span(i, 60, 70) for i in range(SENTENCES)]
    # Every tenth prediction is exact; the rest overlap their gold partly.
    predicted = [
        sentence_span(i, 60, 70) if i % 10 == 0 else sentence_span(i, 62, 75)
        for i in range(SENTENCES)
    ]

    started = time.perf_counter()
    report = filter_by_scopes(ades, scopes)
    filter_elapsed = time.perf_counter() - started
    assert len(report.discarded) == SENTENCES // 4
    assert len(report.kept.spans) == SENTENCES - SENTENCES // 4

    started = time.perf_counter()
    outcomes = match_spans(gold, predicted)
    match_elapsed = time.perf_counter() - started
    kinds = [outcome.kind for outcome in outcomes]
    assert kinds.count(MatchKind.TP) == SENTENCES // 10
    assert kinds.count(MatchKind.PARTIAL) == SENTENCES - SENTENCES // 10

    assert filter_elapsed < 0.5, f"filter_by_scopes took {filter_elapsed:.2f}s"
    assert match_elapsed < 0.5, f"match_spans took {match_elapsed:.2f}s"


def test_bio_projection_scales_with_post_length():
    # Two tokens per sentence; every fourth sentence has a span over both,
    # every other even one a span over the second, odd ones none.
    tokens = [
        Token(surface, sentence_span(i, start, end))
        for i in range(SENTENCES)
        for surface, start, end in (("no", 0, 2), ("pain", 3, 7))
    ]
    spans = [
        sentence_span(i, 0, 7) if i % 4 == 0 else sentence_span(i, 3, 7)
        for i in range(0, SENTENCES, 2)
    ]

    started = time.perf_counter()
    tags = spans_to_bio(tokens, spans)
    elapsed = time.perf_counter() - started
    expected = {0: ["B", "I"], 1: ["O", "O"], 2: ["O", "B"], 3: ["O", "O"]}
    assert list(tags) == [tag for i in range(SENTENCES) for tag in expected[i % 4]]
    assert bio_to_spans(tokens, tags) == set(spans)

    assert elapsed < 0.5, f"spans_to_bio took {elapsed:.2f}s"


def test_extract_locates_every_term_of_a_long_post():
    # Bundled terms in upper case, as hashtags and split by a newline
    # ("restless" ends a sentence, "Legs" opens the next), with curly
    # apostrophes and mentions around them, so every offset after the
    # first sentence depends on the widths before it.
    lexicon = default_ade_lexicon()
    terms = lexicon.terms
    sentences = [
        f"Legs day {i}: it’s {terms[i % len(terms)].upper()} again, "
        f"#{terms[(3 * i) % len(terms)].replace(' ', '')} @doc{i}, can’t cope; restless"
        for i in range(SENTENCES)
    ]
    text = RawText("post", "\n".join(sentences))
    tokens = tokenize(text)
    expected = {
        token_span(tokens, first, last)
        for first, last, _ in longest_matches(token_keys(tokens), lexicon._index)
    }
    assert len(expected) > 2 * SENTENCES
    assert extract(text, lexicon).spans == expected
