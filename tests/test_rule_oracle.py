"""The matcher and the NegEx scope rules against a naive reading of each.

The reference matcher tries every pattern at every token and keeps the
longest; the reference scope marks each token a trigger governs one token
at a time. Texts mix the bundled cues and event terms, in upper case, as
hashtags and with curly apostrophes, with filler words, punctuation and
newlines, so that texts with and without a lexicon key are both common
and the path by which ``detect`` tokenizes only a text a lexicon can match
in is checked on both sides, as are ``prefilter``, which tokenizes none,
and ``extract``, which keys and locates its matches from one split of the
text and builds no token.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from adescope import (
    CueCategory,
    LabeledSample,
    RawText,
    SampleClass,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    extract,
    find_cues,
    prefilter,
    tokenize,
)

NEG, SPEC = default_negation_lexicon(), default_speculation_lexicon()
ADE = default_ade_lexicon()
TERMINALS = {".", "!", "?", "…"}
TRIGGERS = (CueCategory.PRE_TRIGGER, CueCategory.POST_TRIGGER)
# When two cues have the same words, the one that opens no scope wins.
PRIORITY = {
    CueCategory.PSEUDO_TRIGGER: 0,
    CueCategory.TERMINATOR: 1,
    CueCategory.PRE_TRIGGER: 2,
    CueCategory.POST_TRIGGER: 3,
}


def key(surface: str) -> str:
    word = surface.casefold().replace("’", "'")
    return word[1:] if word.startswith("#") else word


def naive_matches(keys: list[str], patterns: list[tuple[tuple[str, ...], tuple, object]]):
    """Leftmost-longest matches as ``(first, last, value)``: at each token,
    every pattern is tried and the longest, then lowest-ranked, wins.
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
        (tuple(key(t.surface) for t in tokenize(cue.pattern)), (PRIORITY[cue.category], order), cue)
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
    st.sampled_from([".", ",", "?", "!", "…", "\n", "\r\n"]),
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


TERM_PATTERNS = [
    (tuple(key(t.surface) for t in tokenize(term)), (order,), term)
    for order, term in enumerate(ADE.terms)
]


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_extract_follows_the_rules(content):
    tokens = tokenize(content)
    expected = {
        (tokens[first].span.start, tokens[last].span.end)
        for first, last, _ in naive_matches([key(t.surface) for t in tokens], TERM_PATTERNS)
    }
    found = {(s.start, s.end) for s in extract(RawText("t", content), ADE).spans}
    assert found == expected
