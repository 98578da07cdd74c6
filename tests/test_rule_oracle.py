"""The matcher and the NegEx scope rules against a naive reading of each.

The reference matcher tries every pattern at every token and keeps the
longest; the reference scope marks each token a trigger governs one token
at a time. Texts mix the bundled cues and event terms, in upper case, as
hashtags and with curly apostrophes, with filler words, punctuation,
newlines, lone carriage returns and tabs. So texts with and without a
lexicon key are both common, and each path is checked on both sides:
``detect``, which keys a text from its one tokenization and scans only the
lexicons with a key in it; ``prefilter``, which locates nothing, and again
with its first prefix shrunk to a few characters, on longer texts; and
``extract``, which keys and locates its matches from one split of the text
and builds no token. Cue windows cross gaps with and without a line break,
so the scope-gap rule is drawn on both sides too. The matcher itself is
also checked on pattern lists drawn from a small vocabulary, not only the
bundled lexicons: patterns share first keys and prefixes, some key alike
though written differently, and a lone ``#`` keys as the empty string. A
list with patterns that key alike is refused at the first repeat, and the
matcher is checked on the patterns that key apart. Last, the word gate
that lets ``detect``, ``prefilter`` and ``extract`` skip a short ASCII
text is checked on drawn texts and cue and term lexicons: it may reject a
text only when none of the text's keys is a first key of the lexicon. The
oracles above key a cue's pattern as the code does, so they cannot tell
whether an entry keys like the same words in a text; a last property
checks that directly, on patterns with letters whose casefolding moves
token breaks.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from adescope import (
    AdeLexicon,
    Cue,
    CueCategory,
    CueLexicon,
    LabeledSample,
    Phenomenon,
    RawText,
    SampleClass,
    ValidationError,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    extract,
    find_cues,
    prefilter,
    tokenize,
)
from adescope.text import Lexicon, longest_matches

NEG, SPEC = default_negation_lexicon(), default_speculation_lexicon()
ADE = default_ade_lexicon()
TERMINALS = {".", "!", "?", "…"}
TRIGGERS = (CueCategory.PRE_TRIGGER, CueCategory.POST_TRIGGER)


def key(surface: str) -> str:
    word = surface.casefold().replace("’", "'")
    return word[1:] if word.startswith("#") else word


def naive_matches(keys: list[str], patterns: list[tuple[tuple[str, ...], tuple, object]]):
    """Leftmost-longest matches as ``(first, last, value)``: at each token,
    every pattern is tried and the longest, then lowest-ranked, wins. No two
    patterns of a lexicon key alike, so cue order alone ranks cues.
    """
    found, position = [], 0
    while position < len(keys):
        fits = [
            (-len(words), rank, words, value)
            for words, rank, value in patterns
            if tuple(keys[position : position + len(words)]) == words
        ]
        if fits:
            _, _, words, value = min(fits, key=lambda fit: fit[:2])
            found.append((position, position + len(words) - 1, value))
            position += len(words)
        else:
            position += 1
    return found


def cue_patterns(lexicon):
    return [
        (tuple(key(t.surface) for t in tokenize(cue.pattern)), (order,), cue)
        for order, cue in enumerate(lexicon.cues)
    ]


def naive_scopes(content: str, lexicon, window: int) -> set[tuple]:
    """Each trigger's scope, built token by token: a token is in it when it
    lies within ``window`` tokens on the trigger's side and no stop (a
    non-pseudo cue token, a terminal token, a newline gap or the text's
    edge) comes before it on the walk out from the trigger.
    """
    tokens = tokenize(content)
    matches = naive_matches([key(t.surface) for t in tokens], cue_patterns(lexicon))
    cue_tokens = {
        position
        for first, last, cue in matches
        if cue.category is not CueCategory.PSEUDO_TRIGGER
        for position in range(first, last + 1)
    }

    def stops(previous: int, position: int) -> bool:
        if not 0 <= position < len(tokens):
            return True
        if position in cue_tokens or tokens[position].surface in TERMINALS:
            return True
        left, right = sorted((previous, position))
        gap = content[tokens[left].span.end : tokens[right].span.start]
        return "\n" in gap or "\r" in gap

    scopes = set()
    for first, last, cue in matches:
        if cue.category not in TRIGGERS:
            continue
        edge, step = (last, 1) if cue.category is CueCategory.PRE_TRIGGER else (first, -1)
        governed = []
        for distance in range(1, window + 1):
            position = edge + step * distance
            if stops(position - step, position):
                break
            governed.append(position)
        if governed:
            start = min(tokens[p].span.start for p in governed)
            end = max(tokens[p].span.end for p in governed)
            trigger = (tokens[first].span.start, tokens[last].span.end)
            scopes.add(((start, end), trigger, cue.pattern))
    return scopes


def variants(words):
    """Each word as written, upper-cased, as a hashtag and with curly apostrophes."""
    return st.sampled_from(sorted(set(words))).flatmap(
        lambda word: st.sampled_from(
            [word, word.upper(), "#" + word.capitalize(), word.replace("'", "’")]
        )
    )


CUE_WORDS = [cue.pattern for lexicon in (NEG, SPEC) for cue in lexicon.cues]
FILLER = ["the", "meds", "today", "really", "got", "tablet", "@doc", "x2", "after", "dose"]
PIECES = st.one_of(
    st.sampled_from(FILLER),
    st.sampled_from(FILLER),
    st.sampled_from([".", ",", "?", "!", "…", "\n", "\r\n", "\r", "\t"]),
    variants(CUE_WORDS),
    variants(ADE.terms),
)
TEXTS = st.lists(PIECES, min_size=1, max_size=14).map(" ".join).filter(str.strip)
SELECTIONS = st.sampled_from([(NEG,), (SPEC,), (NEG, SPEC)])
WINDOWS = st.integers(min_value=1, max_value=8)


@settings(max_examples=300, deadline=None)
@given(TEXTS, SELECTIONS, WINDOWS)
def test_find_cues_detect_and_prefilter_follow_the_rules(content, lexicons, window):
    text = RawText("t", content)
    tokens = tokenize(text)
    keys = [key(t.surface) for t in tokens]
    for lexicon in lexicons:
        expected = naive_matches(keys, cue_patterns(lexicon))
        found = [(m.first_token, m.last_token, m.cue) for m in find_cues(tokens, lexicon)]
        assert found == expected

    expected = set().union(*(naive_scopes(content, lexicon, window) for lexicon in lexicons))
    found = {
        (
            (s.span.start, s.span.end),
            (s.trigger.span.start, s.trigger.span.end),
            s.trigger.cue.pattern,
        )
        for s in detect(text, lexicons, window)
    }
    assert found == expected

    sample = LabeledSample(text, frozenset(), SampleClass.NO_ADE)
    fires = any(
        cue.category in TRIGGERS
        for lexicon in lexicons
        for _, _, cue in naive_matches(keys, cue_patterns(lexicon))
    )
    assert prefilter([sample], lexicons) == ([sample] if fires else [])


# Cues that open no scope, some headed by a trigger ("no" of "no wonder"),
# drawn often enough that many texts hold a trigger only as such a head.
NON_TRIGGERS = [
    cue.pattern for lexicon in (NEG, SPEC) for cue in lexicon.cues if cue.category not in TRIGGERS
]
PREFIX_TEXTS = (
    st.lists(st.one_of(PIECES, variants(NON_TRIGGERS)), min_size=1, max_size=40)
    .map(" ".join)
    .filter(str.strip)
)


@settings(max_examples=300, deadline=None)
@given(PREFIX_TEXTS, SELECTIONS)
@example("the no wonder", (NEG,))
@example("no significant change", (NEG,))  # as many keys as the longest cue
def test_prefilter_on_shrunk_prefixes_follows_the_rules(content, lexicons):
    # Prefixes of a few characters cut most texts many times, and a cut
    # often falls inside a cue, where a trigger that the whole text extends
    # into a longer cue must not decide.
    sample = LabeledSample(RawText("t", content), frozenset(), SampleClass.NO_ADE)
    keys = [key(t.surface) for t in tokenize(content)]
    fires = any(
        cue.category in TRIGGERS
        for lexicon in lexicons
        for _, _, cue in naive_matches(keys, cue_patterns(lexicon))
    )
    for chars in (1, 2, 3, 8, 16):
        with mock.patch("adescope.scope._PREFIX_CHARS", chars):
            assert prefilter([sample], lexicons) == ([sample] if fires else []), chars


def term_patterns(terms):
    return [
        (tuple(key(t.surface) for t in tokenize(term)), (order,), term)
        for order, term in enumerate(terms)
    ]


def naive_term_spans(content: str, terms) -> set[tuple[int, int]]:
    tokens = tokenize(content)
    return {
        (tokens[first].span.start, tokens[last].span.end)
        for first, last, _ in naive_matches([key(t.surface) for t in tokens], term_patterns(terms))
    }


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_extract_follows_the_rules(content):
    found = {(s.start, s.end) for s in extract(RawText("t", content), ADE).spans}
    assert found == naive_term_spans(content, ADE.terms)


# "A", "#a" and "a" key alike, as do the three spellings of "don't"; "#"
# alone keys as "". Drawn one to four at a time, patterns share first keys
# and prefixes, and some key alike though written differently.
WORDS = ["a", "A", "#a", "b", "#", "don't", "DON’T", "don’t", "c"]
PATTERN_LISTS = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=12,
)
WORD_TEXTS = st.lists(st.sampled_from(WORDS + ["x", ".", "\n"]), max_size=20).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(PATTERN_LISTS, WORD_TEXTS)
def test_longest_matches_follows_the_rules_for_any_lexicon(patterns, content):
    tokens = tokenize(content)
    keyed = [tuple(key(t.surface) for t in tokenize(pattern)) for pattern in patterns]
    repeats = [order for order, words in enumerate(keyed) if words in keyed[:order]]
    if repeats:
        # The first pattern keyed like an earlier one is refused; the
        # matcher is then checked on the patterns that key apart.
        with pytest.raises(ValidationError) as caught:
            Lexicon((p, o) for o, p in enumerate(patterns))
        assert str(caught.value).startswith(f"duplicate lexicon entry {patterns[repeats[0]]!r}:")
    kept = [order for order in range(len(patterns)) if order not in repeats]
    naive = [(keyed[order], (order,), order) for order in kept]
    found = longest_matches(tokens.keys, Lexicon((patterns[o], o) for o in kept))
    assert found == naive_matches([key(t.surface) for t in tokens], naive)


# Texts and cues for the word gate: ASCII letters of both cases, digits,
# _, ', #, @ and punctuation; control characters; the whitespace that \s
# and str.split() agree on, \x1c-\x1f and NBSP included; letters that
# casefold to ASCII (ſ, the Kelvin sign) or to more than one character
# (ß, İ); and what real posts hold besides: a dash, a curly apostrophe, an
# accent, a combining mark that folds to a letter (U+0345) and a ZWJ emoji
# sequence. Pieces put cue words next to each edge of a word run.
FAMILY = "\U0001f468\u200d\U0001f469\u200d\U0001f467"
GATE_CHARS = "aAsSkKnNoO09_'#@.,?!-()\t\n\r\x0b\x0c\x1c\x1f \x01\x7fſ\u212aßİ"
GATE_CHARS += "—’é\xa0\u0345" + FAMILY
GATE_PIECES = ["no", "NOT", "#No", "@no", "no_way", "n0", "don't", "x'no", "so", "ok"]
GATE_PIECES += ["'no", "no'", "\x01no", "?", "'", "#"]
GATE_PIECES += ["—", "’", "é", "no\xa0way", "\u0345", FAMILY]
GATE_TEXTS = (
    st.lists(
        st.one_of(st.sampled_from(GATE_PIECES), st.text(GATE_CHARS, min_size=1, max_size=3)),
        min_size=1,
        max_size=8,
    )
    .map("".join)
    .filter(str.strip)
)


@st.composite
def gate_patterns(draw):
    """One to four drawn patterns, some punctuation only or a lone ``#``; a
    pattern keyed like an earlier one is left out."""
    kept, seen = [], set()
    pieces = st.sampled_from(GATE_PIECES)
    patterns = st.one_of(pieces, pieces, GATE_TEXTS.map(str.strip))
    for pattern in draw(st.lists(patterns, min_size=1, max_size=4)):
        if (keys := tokenize(pattern).keys) not in seen:
            seen.add(keys)
            kept.append(pattern)
    return kept


@st.composite
def gate_lexicons(draw):
    """A negation lexicon of :func:`gate_patterns` cues with any category."""
    cues = [
        Cue(pattern, draw(st.sampled_from(list(CueCategory))), Phenomenon.NEGATION)
        for pattern in draw(gate_patterns())
    ]
    return CueLexicon(cues, Phenomenon.NEGATION)


def pre_triggers(*patterns: str) -> CueLexicon:
    cues = [Cue(pattern, CueCategory.PRE_TRIGGER, Phenomenon.NEGATION) for pattern in patterns]
    return CueLexicon(cues, Phenomenon.NEGATION)


@settings(max_examples=500, deadline=None)
@given(GATE_TEXTS, gate_lexicons(), WINDOWS)
@example("no' rash", pre_triggers("no"), 5)  # a quote that joins no run
@example("\x01no rash", pre_triggers("no"), 5)  # a control character
@example("NO rash", pre_triggers("no"), 5)
@example("no_way rash", pre_triggers("no_way"), 5)  # _ is a word character
@example("n0 rash", pre_triggers("n0"), 5)  # so are digits
@example("rash? no", pre_triggers("?", "no_way"), 5)  # "?" holds no word
@example("\u017fo rash", pre_triggers("so"), 5)  # not ASCII, keyed "so rash"
@example("İyi değil", pre_triggers("İyi"), 5)  # a cue with no ASCII first key
@example("café — no’s gone " + FAMILY, pre_triggers("not"), 5)  # not ASCII, rejected
def test_word_gate_rejects_only_texts_without_a_first_key(content, lexicon, window):
    text = RawText("t", content)
    with mock.patch("adescope.scope.tokenize", side_effect=tokenize) as split:
        found = detect(text, (lexicon,), window)
    if not split.called:  # the gate rejected the text
        roots = {keys[0] for keys, _, _ in cue_patterns(lexicon)}
        assert roots.isdisjoint(key(t.surface) for t in tokenize(content))
    assert {
        ((s.span.start, s.span.end), tuple(s.trigger.span), s.trigger.cue.pattern)
        for s in found
    } == naive_scopes(content, lexicon, window)

    sample = LabeledSample(text, frozenset(), SampleClass.NO_ADE)
    keys = [key(t.surface) for t in tokenize(content)]
    fires = any(
        cue.category in TRIGGERS for _, _, cue in naive_matches(keys, cue_patterns(lexicon))
    )
    assert prefilter([sample], (lexicon,)) == ([sample] if fires else [])


@settings(max_examples=500, deadline=None)
@given(GATE_TEXTS, gate_patterns())
@example("is it a rash? maybe", ["?", "rash"])  # "?" holds no word: the gate is off
@example("#Rash again", ["rash", "rash_x", "n0"])
@example("a rash_x, n0 rash", ["#Rash", "rash_x", "n0"])  # _ and digits join a word
@example("itch\x1crash", ["rash"])  # \x1c splits words, as it splits tokens
@example("İyi değil", ["İyi"])  # a term with no ASCII first key
@example("café — no’s gone " + FAMILY, ["rash", "#sore"])  # not ASCII, rejected
def test_word_gate_never_drops_a_text_extract_can_match_in(content, terms):
    lexicon = AdeLexicon(terms)
    with mock.patch("adescope.baseline.tokenize", side_effect=tokenize) as split:
        found = extract(RawText("t", content), lexicon)
    if not split.called:  # the gate rejected the text
        roots = {key(tokenize(term)[0].surface) for term in terms}
        assert roots.isdisjoint(key(t.surface) for t in tokenize(content))
    assert {(s.start, s.end) for s in found.spans} == naive_term_spans(content, terms)


# Letters whose casefolding moves token breaks: "İ" folds to "i" and a
# combining dot, which is not a word character; U+0345, a combining mark,
# folds to a letter; "ΐ" folds to a letter and two combining marks.
WRITTEN_CHARS = "aBz#’ İ\u0345\u0390"


@settings(max_examples=300, deadline=None)
@given(st.text(WRITTEN_CHARS, min_size=1, max_size=8).map(str.strip).filter(bool))
@example("İyi")
@example("a\u0345b")
@example("\u0390")
def test_an_entry_matches_the_same_words_written_as_a_text(pattern):
    text = RawText("t", pattern)
    assert extract(text, AdeLexicon((pattern,))).spans == {(0, len(pattern))}
    cue = Cue(pattern, CueCategory.PRE_TRIGGER, Phenomenon.NEGATION)
    tokens = tokenize(text)
    matches = find_cues(tokens, CueLexicon((cue,), Phenomenon.NEGATION))
    assert [(m.cue, m.first_token, m.last_token) for m in matches] == [(cue, 0, len(tokens) - 1)]
