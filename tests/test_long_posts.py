"""Filtering, matching, BIO projection and scope detection on one long post
stay near-linear in its length, term extraction locates every match in
one, matching costs about the same however many patterns share a first
key, prefiltering keys a long post only up to its first trigger, and
writing a large file holds a small part of it at a time.

The post has 10,000 sentences, each 100 characters wide, with one scope,
one prediction, one gold span and one matched prediction per sentence. An
all-pairs scan does on the order of 10,000 x 10,000 overlap tests in each
step; the sweeps do a few per span. The large lexicons are built here from
a fixed seed: a scan that tries every pattern sharing a first key does
their size's worth of work at each key.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from functools import partial

from adescope import (
    CorpusPartition,
    Cue,
    CueCategory,
    CueMatch,
    EntitySet,
    LabeledSample,
    MatchKind,
    Phenomenon,
    PredictionFile,
    RawText,
    SampleClass,
    ScopeSpan,
    Span,
    Token,
    bio_to_spans,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    extract,
    filter_by_scopes,
    load_corpus,
    match_spans,
    prefilter,
    spans_to_bio,
    tokenize,
    write_corpus,
    write_predictions,
)
from adescope.baseline import AdeLexicon
from adescope.text import Lexicon, longest_matches

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
        tokens.span(first, last)
        for first, last, _ in longest_matches(tokens.keys, lexicon)
    }
    assert len(expected) > 2 * SENTENCES
    assert extract(text, lexicon).spans == expected


def test_detect_resolves_every_scope_of_a_long_post():
    # Per sentence: a negation cue written with a curly apostrophe whose
    # window of 5 crosses a tab; a speculation cue whose scope crosses a
    # tab and stops at a lone carriage return; and a post-trigger whose
    # backward scope stops at the same carriage return. Sentences are
    # padded to WIDTH and end in a newline, so every scope is the first
    # sentence's shifted by whole sentences and tokens.
    template = "i DON’T get rash\tor itch; maybe\tthe #Dose\rwas bad or something"
    sentence = template.ljust(WIDTH - 1) + "\n"
    per_sentence = len(tokenize(template))
    text = RawText("post", sentence * SENTENCES)
    neg, spec = default_negation_lexicon(), default_speculation_lexicon()
    cues = {cue.pattern: cue for lexicon in (neg, spec) for cue in lexicon.cues}

    def at(word: str) -> int:
        return template.index(word)

    # (cue, trigger start and end, trigger tokens, scope start and end)
    rules = [
        ("don't", at("DON’T"), at(" get"), 1, 1, at("get"), at(" maybe")),
        ("maybe", at("maybe"), at("\tthe"), 7, 7, at("the"), at("\rwas")),
        ("or something", at("or some"), len(template), 12, 13, at("was"), at(" or some")),
    ]
    expected = {
        ScopeSpan(
            sentence_span(i, start, end),
            CueMatch(
                cues[pattern],
                sentence_span(i, cue_start, cue_end),
                i * per_sentence + first,
                i * per_sentence + last,
            ),
            cues[pattern].phenomenon,
            "post",
        )
        for i in range(SENTENCES)
        for pattern, cue_start, cue_end, first, last, start, end in rules
    }

    started = time.perf_counter()
    scopes = detect(text, (neg, spec))
    elapsed = time.perf_counter() - started
    assert scopes == expected
    assert elapsed < 3.0, f"detect took {elapsed:.2f}s"


def test_prefilter_keys_long_posts_only_up_to_their_first_trigger():
    # 20 posts of 200,013 characters whose first line holds "not". Keying
    # every character of them took 0.35-0.46 s; up to the trigger, 2-3 ms.
    filler = "my head hurt after the dose today\n" * 5_882
    first_line = "the rash did not go away\n"
    lexicons = (default_negation_lexicon(), default_speculation_lexicon())

    def posts(content: str, count: int) -> list[LabeledSample]:
        return [
            LabeledSample(RawText(f"p{i}", content), frozenset(), SampleClass.NO_ADE)
            for i in range(count)
        ]

    opening = posts(first_line + filler, 20)
    started = time.perf_counter()
    kept = prefilter(opening, lexicons)
    elapsed = time.perf_counter() - started
    assert kept == opening
    assert len(opening[0].text.content) == 200_013
    assert elapsed < 0.1, f"prefilter took {elapsed:.3f}s"
    # Without a trigger, and with one only in the last line, the whole post is keyed.
    closing = posts(filler + first_line, 1)
    assert prefilter(posts(filler, 1) + closing, lexicons) == closing


def test_patterns_sharing_a_long_prefix_scan_in_time():
    # 100 patterns of 100 keys share their first 99, so the walk from each of
    # 20,000 keys follows 99 of them; only the last 100 keys match a pattern.
    patterns = ["a " * 99 + f"b{i}" for i in range(100)]
    lexicon = Lexicon((pattern, i) for i, pattern in enumerate(patterns))
    keys = ("a",) * 19_999 + ("b7",)

    started = time.perf_counter()
    matches = longest_matches(keys, lexicon)
    elapsed = time.perf_counter() - started
    assert matches == [(19_900, 19_999, 7)]
    assert elapsed < 1.0, f"longest_matches took {elapsed:.2f}s"


def generated_terms(contents: list[str], count: int, seed: int) -> list[str]:
    """``count`` distinct terms over the words of ``contents``. Half are runs
    of one to four tokens of a text; half open with one of the ten most
    frequent words and go on with one to four words drawn evenly, so a few
    first words each lead thousands of terms, and most match nowhere."""
    rng = random.Random(seed)
    texts = [[token.surface for token in tokenize(content)] for content in contents]
    words = sorted({word for text in texts for word in text})
    frequent = [word for word, _ in Counter(w for text in texts for w in text).most_common(10)]
    terms: dict[str, None] = {}
    while len(terms) < count:
        if rng.random() < 0.5:
            text = rng.choice(texts)
            start = rng.randrange(len(text))
            term = text[start : start + rng.randint(1, 4)]
        else:
            term = [rng.choice(frequent)] + rng.choices(words, k=rng.randint(1, 4))
        terms.setdefault(" ".join(term).casefold(), None)
    return list(terms)


def reference_spans(content: str, patterns: set[tuple[str, ...]], longest: int) -> set[Span]:
    """Leftmost-longest term spans: at each position, every length from the
    longest pattern's down is looked up in the set of pattern keys."""
    tokens = tokenize(content)
    spans, position = set(), 0
    while position < len(tokens):
        for length in range(min(longest, len(tokens) - position), 0, -1):
            if tokens.keys[position : position + length] in patterns:
                spans.add(tokens.span(position, position + length - 1))
                position += length
                break
        else:
            position += 1
    return spans


def test_a_large_term_list_extracts_in_time(corpus_dir):
    # 20,000 terms over the test split's words, extracted from the split
    # repeated ten times (5,400 texts).
    samples = load_corpus(corpus_dir / "test.tsv").samples
    contents = [sample.text.content for sample in samples]
    terms = generated_terms(contents, 20_000, seed=23)
    texts = [sample.text for sample in samples] * 10

    started = time.perf_counter()
    lexicon = AdeLexicon(terms)
    found = [extract(text, lexicon).spans for text in texts]
    elapsed = time.perf_counter() - started
    patterns = {tokenize(term).keys for term in terms}
    longest = max(map(len, patterns))
    expected = [reference_spans(content, patterns, longest) for content in contents]
    assert found == expected * 10
    assert sum(map(len, expected)) > 1_000
    assert elapsed < 0.6, f"extract took {elapsed:.2f}s"


def test_writes_stream_their_lines(corpus_dir, tmp_path):
    # The test split repeated 30 times (16,200 rows) under suffixed ids: a
    # 1.2 MB TSV and a 1.9 MB JSON-lines corpus, and a prediction file of
    # its gold spans. A write that built the file's text before writing it
    # would hold over three times the file.
    samples = [
        sample._replace(text=sample.text._replace(id=f"{sample.text.id}-{copy}"))
        for copy in range(30)
        for sample in load_corpus(corpus_dir / "test.tsv").samples
    ]
    partition = CorpusPartition("generated", samples)
    predictions = PredictionFile({"model": "m"}, [(s.text.id, s.gold_spans) for s in samples])
    writes = {
        "corpus.tsv": partial(write_corpus, partition, format="tsv"),
        "corpus.jsonl": partial(write_corpus, partition, format="jsonl"),
        "preds.tsv": partial(write_predictions, predictions),
    }
    for name, write in writes.items():
        path = tmp_path / name
        tracemalloc.start()
        try:
            write(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Rows are written in id order, so a prediction file's write also
        # holds its sorted ids: a pointer a row, plus the sort's buffer.
        allowed = 0.05 * path.stat().st_size + (16 * len(samples) if name == "preds.tsv" else 0)
        assert peak < allowed, f"writing {name} held {peak} B, allowed {allowed:.0f} B"
    assert load_corpus(tmp_path / "corpus.jsonl", format="jsonl").samples == partition.samples
