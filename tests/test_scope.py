from __future__ import annotations

from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import adescope.scope
from adescope import (
    Cue,
    CueCategory,
    CueLexicon,
    LabeledSample,
    ParseError,
    Phenomenon,
    RawText,
    SampleClass,
    ValidationError,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    detect_negation,
    detect_speculation,
    find_cues,
    load_lexicon,
    parse_lexicon,
    prefilter,
    resolve_scopes,
    tokenize,
)

NEG = Phenomenon.NEGATION


def lexicon(*entries: tuple[str, CueCategory], phenomenon=NEG) -> CueLexicon:
    return CueLexicon(
        tuple(Cue(p, c, phenomenon) for p, c in entries), phenomenon
    )


def scope_texts(text: str, scopes) -> set[str]:
    return {text[s.span.start : s.span.end] for s in scopes}


class TestLexiconIO:
    def test_parse_pattern_category_lines(self):
        lex = parse_lexicon(
            "# comment\nno|pre_trigger\n\nseems like|pre_trigger\n",
            Phenomenon.SPECULATION,
        )
        assert [c.pattern for c in lex.cues] == ["no", "seems like"]
        assert all(c.category is CueCategory.PRE_TRIGGER for c in lex.cues)

    def test_unknown_category_names_line(self):
        with pytest.raises(ParseError, match=":2"):
            parse_lexicon("no|pre_trigger\nno|negator\n", NEG)

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_lexicon("just a pattern\n", NEG)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ParseError) as caught:
            parse_lexicon("# only a comment\n\n", NEG)
        assert str(caught.value) == "<string>: a cue lexicon must contain at least one cue"

    def test_duplicate_pattern_category_rejected(self):
        with pytest.raises(ParseError):
            parse_lexicon("no|pre_trigger\nNO|pre_trigger\n", NEG)

    def test_long_values_are_echoed_cut(self):
        long = "no" * 100
        cut = f"'{long[:40]}…'"
        cases = [
            (
                lambda: parse_lexicon(f"no|pre_trigger\n{long}|{long}\n", NEG),
                f"<string>:2: unknown cue category {cut}",
            ),
            (
                lambda: parse_lexicon(f"{long}|pre_trigger\n{long}|pre_trigger\n", NEG),
                f"<string>: duplicate cue {cut} (pre_trigger)",
            ),
            (
                lambda: Cue(f" {long}", CueCategory.PRE_TRIGGER, NEG),
                f"bad cue pattern ' {long[:39]}…'",
            ),
            (
                lambda: CueLexicon((Cue(long, CueCategory.PRE_TRIGGER, Phenomenon.SPECULATION),), NEG),
                f"cue {cut} is tagged speculation, lexicon is negation",
            ),
            (
                lambda: resolve_scopes("no pain", [], [], -(10**60)),
                f"window must be >= 1, got -1{'0' * 38}…",
            ),
        ]
        for build, message in cases:
            with pytest.raises(ValidationError) as caught:
                build()
            assert str(caught.value) == message

    def test_lexicon_file_loads_back_equal(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("# cues\nno|pre_trigger\n\nBut | terminator\n", encoding="utf-8")
        lex = lexicon(("no", CueCategory.PRE_TRIGGER), ("but", CueCategory.TERMINATOR))
        assert load_lexicon(path, NEG) == lex

    def test_bundled_lexicons_load(self):
        """Each is its phenomenon's file, loaded once."""
        data = Path(adescope.scope.__file__).with_name("data")
        for default, phenomenon in (
            (default_negation_lexicon, NEG),
            (default_speculation_lexicon, Phenomenon.SPECULATION),
        ):
            assert default().phenomenon is phenomenon
            assert default() is default()
            assert default() == load_lexicon(data / f"{phenomenon.value}_cues.txt", phenomenon)


class TestFindCues:
    def test_longest_match_wins(self):
        lex = lexicon(
            ("no", CueCategory.PRE_TRIGGER),
            ("no evidence", CueCategory.PRE_TRIGGER),
        )
        matches = find_cues(tokenize("I have no evidence for that"), lex)
        assert [m.cue.pattern for m in matches] == ["no evidence"]

    def test_matching_is_case_insensitive(self):
        matches = find_cues(tokenize("Metoprolol is NOT known"), lexicon(("not", CueCategory.PRE_TRIGGER)))
        assert len(matches) == 1
        assert matches[0].span.start == 14 and matches[0].span.end == 17

    def test_pseudo_trigger_subsumes_shorter_trigger(self):
        lex = lexicon(
            ("no", CueCategory.PRE_TRIGGER),
            ("no wonder", CueCategory.PSEUDO_TRIGGER),
        )
        matches = find_cues(tokenize("no wonder it hurts"), lex)
        assert [m.cue.category for m in matches] == [CueCategory.PSEUDO_TRIGGER]

    def test_matches_do_not_overlap(self):
        lex = lexicon(("no", CueCategory.PRE_TRIGGER))
        matches = find_cues(tokenize("no no no"), lex)
        assert len(matches) == 3
        for left, right in zip(matches, matches[1:]):
            assert left.span.end <= right.span.start

    def test_multiword_cue_spans_whole_phrase(self):
        lex = lexicon(("there's no way", CueCategory.PRE_TRIGGER))
        text = "and there's no way I'm sleeping"
        (match,) = find_cues(tokenize(text), lex)
        assert text[match.span.start : match.span.end] == "there's no way"

    # Cues whose patterns differ but share token keys ("no" and "#no"): the
    # safest category wins whatever the lexicon order.
    SAFEST_FIRST = [
        CueCategory.PSEUDO_TRIGGER,
        CueCategory.TERMINATOR,
        CueCategory.PRE_TRIGGER,
        CueCategory.POST_TRIGGER,
    ]

    @pytest.mark.parametrize("plain,hashed", list(permutations(CueCategory, 2)))
    def test_colliding_cues_resolve_to_the_safest_category(self, plain, hashed):
        expected = min(plain, hashed, key=self.SAFEST_FIRST.index)
        for entries in ((("no", plain), ("#no", hashed)), (("#no", hashed), ("no", plain))):
            (match,) = find_cues(tokenize("no"), lexicon(*entries))
            assert match.cue.category is expected

    @pytest.mark.parametrize("category", list(CueCategory))
    def test_colliding_cues_of_one_category_keep_the_earlier(self, category):
        for patterns in (("no", "#no"), ("#no", "no")):
            (match,) = find_cues(tokenize("no"), lexicon(*((p, category) for p in patterns)))
            assert match.cue.pattern == patterns[0]


class TestResolveScopes:
    def test_forward_scope_respects_window(self):
        text = "But I'm not on adderall and I am feasting."
        tokens = tokenize(text)
        lex = lexicon(("not", CueCategory.PRE_TRIGGER))
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex), window=5)
        assert scope_texts(text, scopes) == {"on adderall and I am"}

    def test_following_trigger_closes_open_scope(self):
        text = "no pain no inflammation"
        tokens = tokenize(text)
        lex = lexicon(("no", CueCategory.PRE_TRIGGER))
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex))
        assert scope_texts(text, scopes) == {"pain", "inflammation"}
        starts = sorted((s.span.start, s.span.end) for s in scopes)
        assert starts == [(3, 7), (11, 23)]

    def test_terminator_closes_scope(self):
        text = "not tired but hungry today ok"
        tokens = tokenize(text)
        lex = lexicon(
            ("not", CueCategory.PRE_TRIGGER), ("but", CueCategory.TERMINATOR)
        )
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex))
        assert scope_texts(text, scopes) == {"tired"}

    def test_sentence_punctuation_closes_scope(self):
        text = "no headache. the fever stayed"
        tokens = tokenize(text)
        lex = lexicon(("no", CueCategory.PRE_TRIGGER))
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex))
        assert scope_texts(text, scopes) == {"headache"}

    def test_newline_closes_scope(self):
        text = "no headache\nthe fever stayed"
        tokens = tokenize(text)
        lex = lexicon(("no", CueCategory.PRE_TRIGGER))
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex))
        assert scope_texts(text, scopes) == {"headache"}

    def test_cue_at_text_end_yields_no_scope(self):
        text = "it hurts not"
        tokens = tokenize(text)
        lex = lexicon(("not", CueCategory.PRE_TRIGGER))
        assert resolve_scopes(text, tokens, find_cues(tokens, lex)) == []

    def test_post_trigger_scans_backward(self):
        text = "the rash was ruled out"
        tokens = tokenize(text)
        lex = lexicon(("ruled out", CueCategory.POST_TRIGGER))
        scopes = resolve_scopes(text, tokens, find_cues(tokens, lex), window=2)
        assert scope_texts(text, scopes) == {"rash was"}

    def test_pseudo_trigger_opens_no_scope(self):
        text = "no wonder it hurts"
        tokens = tokenize(text)
        lex = lexicon(
            ("no", CueCategory.PRE_TRIGGER),
            ("no wonder", CueCategory.PSEUDO_TRIGGER),
        )
        assert resolve_scopes(text, tokens, find_cues(tokens, lex)) == []

    def test_pseudo_trigger_inside_window_does_not_end_scope(self):
        # "no wonder" is a cue match, but not a stop: the scope runs over it.
        text = "not sure why no wonder it hurts"
        tokens = tokenize(text)
        lex = lexicon(
            ("not", CueCategory.PRE_TRIGGER),
            ("no", CueCategory.PRE_TRIGGER),
            ("no wonder", CueCategory.PSEUDO_TRIGGER),
        )
        matches = find_cues(tokens, lex)
        assert [m.cue.category for m in matches] == [
            CueCategory.PRE_TRIGGER,
            CueCategory.PSEUDO_TRIGGER,
        ]
        scopes = resolve_scopes(text, tokens, matches, window=5)
        assert scope_texts(text, scopes) == {"sure why no wonder it"}

    def test_window_must_be_positive(self):
        with pytest.raises(ValidationError):
            resolve_scopes("no pain", tokenize("no pain"), [], window=0)

    def test_scopes_carry_trigger_and_phenomenon(self):
        text = "Metoprolol is NOT known to cause hypokalemia"
        tokens = tokenize(text)
        (scope,) = resolve_scopes(
            text, tokens, find_cues(tokens, default_negation_lexicon())
        )
        assert (scope.span.start, scope.span.end) == (18, 44)
        assert (scope.trigger.span.start, scope.trigger.span.end) == (14, 17)
        assert scope.phenomenon is NEG


class TestDetect:
    def test_negation_on_worked_example(self):
        text = RawText("m1", "Metoprolol is NOT known to cause hypokalemia")
        (scope,) = detect_negation(text)
        assert text.content[scope.span.start : scope.span.end] == "known to cause hypokalemia"
        assert scope.text_id == "m1"

    def test_speculation_examples(self):
        cases = {
            "After that game, Doc emrick may need a #lozenge": "need a #lozenge",
            "really possible #restlesslegs with #quetiapine?": "#restlesslegs with #quetiapine",
        }
        for content, expected in cases.items():
            scopes = detect_speculation(RawText("t", content))
            assert scope_texts(content, scopes) == {expected}

    def test_phenomenon_mismatch_rejected(self):
        for detector, other, message in (
            (detect_negation, default_speculation_lexicon(),
             "detect_negation requires a negation lexicon"),
            (detect_speculation, default_negation_lexicon(),
             "detect_speculation requires a speculation lexicon"),
        ):
            with pytest.raises(ValidationError) as caught:
                detector("maybe later", other)
            assert str(caught.value) == message

    def test_narrow_window_shrinks_scope(self):
        text = "not feeling my legs at all today"
        wide = detect_negation(text, default_negation_lexicon(), window=5)
        narrow = detect_negation(text, default_negation_lexicon(), window=1)
        assert scope_texts(text, narrow) == {"feeling"}
        assert scope_texts(text, wide) == {"feeling my legs at all"}

    @given(st.text(max_size=80))
    def test_detection_never_crashes_and_stays_in_bounds(self, content):
        text = content if content.strip() else "placeholder"
        for scope in detect_negation(text) | detect_speculation(text):
            assert 0 <= scope.span.start < scope.span.end <= len(text)

    @given(st.sampled_from([
        "no pain today",
        "might be the meds",
        "never again with this stuff",
        "feeling fine honestly",
    ]))
    def test_adding_unrelated_pattern_never_removes_scopes(self, content):
        base = default_negation_lexicon()
        extended = CueLexicon(
            base.cues + (Cue("zzgrobble", CueCategory.PRE_TRIGGER, NEG),),
            NEG,
        )
        assert detect_negation(content, base) <= detect_negation(content, extended)

    @given(
        st.lists(
            st.sampled_from([
                "no", "not", "never", "without", "no wonder", "might", "maybe",
                "possible", "could be", "but", "pain", "rash", "#nausea", "the",
                ".", "?", ",", "\n",
            ]),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_detect_is_the_union_of_the_single_detectors(self, words, window):
        text = RawText("p", " ".join(words) + " end")
        neg, spec = default_negation_lexicon(), default_speculation_lexicon()
        assert detect(text, (neg, spec), window) == detect_negation(
            text, neg, window
        ) | detect_speculation(text, spec, window)
        assert detect(text, (), window) == set()

    def test_no_lexicons_skip_tokenizing(self, monkeypatch):
        def refuse(text):
            raise AssertionError("tokenized with no lexicons")

        monkeypatch.setattr("adescope.scope.tokenize", refuse)
        assert detect("no pain today", (), 5) == set()

    def test_cue_free_text_skips_tokenizing(self, monkeypatch):
        def refuse(text):
            raise AssertionError("tokenized a text no cue can match")

        monkeypatch.setattr("adescope.scope.tokenize", refuse)
        both = (default_negation_lexicon(), default_speculation_lexicon())
        text = RawText("q", "Metoprolol gave me a headache.\nStill here, #fine")
        assert detect(text, both, 5) == set()
        sample = LabeledSample(text, frozenset(), SampleClass.NO_ADE)
        assert prefilter([sample], both) == []

    @pytest.mark.parametrize(
        "content,cue",
        [("#No pain", "#No"), ("I DON’T have nausea", "DON’T"), ("slept well\nno rash", "no")],
    )
    def test_texts_with_a_cue_key_still_tokenize_and_match(self, monkeypatch, content, cue):
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr("adescope.scope.tokenize", counting)
        both = (default_negation_lexicon(), default_speculation_lexicon())
        text = RawText("c", content)
        scopes = detect(text, both, 5)
        assert {content[s.trigger.span.start : s.trigger.span.end] for s in scopes} == {cue}
        sample = LabeledSample(text, frozenset(), SampleClass.NO_ADE)
        assert prefilter([sample], both) == [sample]
        assert calls == [text]

    def test_prefilter_keeps_a_cue_bearing_sample_without_tokenizing(self, monkeypatch):
        def refuse(text):
            raise AssertionError("prefilter tokenized a text")

        monkeypatch.setattr("adescope.scope.tokenize", refuse)
        both = (default_negation_lexicon(), default_speculation_lexicon())
        kept = LabeledSample(RawText("k", "I DON’T have #nausea"), frozenset(), SampleClass.NO_ADE)
        dropped = LabeledSample(RawText("d", "slept well"), frozenset(), SampleClass.NO_ADE)
        assert prefilter([kept, dropped], both) == [kept]


class TestPrefilter:
    def sample(self, sid: str, content: str) -> LabeledSample:
        return LabeledSample(RawText(sid, content), frozenset(), SampleClass.NO_ADE)

    def test_keeps_cue_bearing_drops_quiet(self):
        samples = [
            self.sample("m1", "Metoprolol is NOT known to cause hypokalemia"),
            self.sample("q1", "I love this drug"),
            self.sample("q2", "maybe it was the dose"),
        ]
        kept = prefilter(samples, [default_negation_lexicon()])
        assert [s.text.id for s in kept] == ["m1"]
        both = prefilter(
            samples, [default_negation_lexicon(), default_speculation_lexicon()]
        )
        assert [s.text.id for s in both] == ["m1", "q2"]

    def test_pseudo_only_sample_dropped(self):
        lex = lexicon(
            ("no", CueCategory.PRE_TRIGGER),
            ("no wonder", CueCategory.PSEUDO_TRIGGER),
        )
        samples = [self.sample("p1", "no wonder it hurts")]
        assert prefilter(samples, [lex]) == []

    def test_terminator_only_sample_dropped(self):
        lex = lexicon(("but", CueCategory.TERMINATOR), ("no", CueCategory.PRE_TRIGGER))
        samples = [self.sample("b1", "tired but fine")]
        assert prefilter(samples, [lex]) == []

    def test_requires_a_lexicon(self):
        with pytest.raises(ValidationError):
            prefilter([], [])
