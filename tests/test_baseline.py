from __future__ import annotations

from pathlib import Path

import pytest

import adescope.baseline
from adescope import (
    AdeLexicon,
    ParseError,
    RawText,
    ValidationError,
    default_ade_lexicon,
    extract,
    load_ade_lexicon,
    tokenize,
)

LEXICON = AdeLexicon(
    ("pain", "joint pain", "restless legs", "restlesslegs", "nausea", "no sleep")
)


def spans_of(content: str, lexicon: AdeLexicon = LEXICON) -> set[tuple[str, int, int]]:
    text = RawText("t", content)
    found = extract(text, lexicon)
    return {(content[s.start : s.end], s.start, s.end) for s in found.spans}


class TestAdeLexicon:
    def test_terms_are_normalised(self):
        lexicon = AdeLexicon(("  Pain ", "NAUSEA"))
        assert lexicon.terms == ("pain", "nausea")

    def test_duplicates_rejected_after_normalisation(self):
        with pytest.raises(ValidationError):
            AdeLexicon(("pain", "PAIN"))

    def test_long_duplicate_is_echoed_cut(self):
        with pytest.raises(ValidationError) as caught:
            AdeLexicon(("pain" * 50, "PAIN" * 50))
        assert str(caught.value) == f"duplicate ADE lexicon term '{'pain' * 10}…'"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            AdeLexicon(())
        with pytest.raises(ValidationError):
            AdeLexicon(("  ",))

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("# events\n\npain\njoint pain\n", encoding="utf-8")
        assert load_ade_lexicon(path).terms == ("pain", "joint pain")

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_ade_lexicon(path)
        assert str(caught.value) == f"{path}: an ADE lexicon must contain at least one term"

    def test_bundled_lexicon_loads(self):
        lexicon = default_ade_lexicon()
        assert "headaches" in lexicon.terms
        assert any(len(tokenize(term)) >= 2 for term in lexicon.terms)
        assert default_ade_lexicon() is lexicon
        terms = Path(adescope.baseline.__file__).with_name("data") / "ade_terms.txt"
        assert lexicon == load_ade_lexicon(terms)


class TestExtract:
    def test_single_term_with_offsets(self):
        assert spans_of("the pain is back") == {("pain", 4, 8)}

    def test_term_free_text_skips_tokenizing(self, monkeypatch):
        def refuse(text):
            raise AssertionError("tokenized a text no term can match")

        monkeypatch.setattr("adescope.baseline.tokenize", refuse)
        assert spans_of("slept well, #fine\nthanks") == set()
        assert spans_of("slept well", default_ade_lexicon()) == set()

    @pytest.mark.parametrize(
        "content,found",
        [
            ("#Nausea again", {("#Nausea", 0, 7)}),
            ("I CAN’T SLEEP", {("CAN’T SLEEP", 2, 13)}),
            ("fine\npain again", {("pain", 5, 9)}),
        ],
    )
    def test_texts_with_a_term_match_without_tokenizing(self, monkeypatch, content, found):
        def refuse(text):
            raise AssertionError("extract tokenized a text")

        monkeypatch.setattr("adescope.baseline.tokenize", refuse)
        monkeypatch.setattr("adescope.text.tokenize", refuse)
        assert spans_of(content, AdeLexicon(("nausea", "can't sleep", "pain"))) == found

    def test_case_insensitive(self):
        assert spans_of("PAIN and Nausea") == {("PAIN", 0, 4), ("Nausea", 9, 15)}

    def test_longest_match_wins(self):
        assert spans_of("severe joint pain today") == {("joint pain", 7, 17)}

    def test_matches_do_not_overlap(self):
        # "joint pain" consumes "pain", so only "nausea" can still match after.
        assert spans_of("joint pain pain nausea") == {
            ("joint pain", 0, 10),
            ("pain", 11, 15),
            ("nausea", 16, 22),
        }

    def test_hashtag_matches_bare_term(self):
        assert spans_of("ugh #restlesslegs again") == {("#restlesslegs", 4, 17)}

    def test_multiword_term_spans_whole_phrase(self):
        assert spans_of("no sleep for two nights") == {("no sleep", 0, 8)}

    def test_token_boundaries_respected(self):
        assert spans_of("painting the fence") == set()
        assert spans_of("pains me to say") == set()

    def test_punctuation_between_tokens_blocks_phrase(self):
        assert spans_of("joint. pain") == {("pain", 7, 11)}

    def test_no_matches_gives_empty_set(self):
        found = extract(RawText("t", "feeling fine"), LEXICON)
        assert found.text_id == "t"
        assert found.spans == frozenset()
