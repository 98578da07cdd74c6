from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from adescope import (
    Cue,
    CueCategory,
    CueMatch,
    DiscardedSpan,
    EntitySet,
    Phenomenon,
    ScopeSpan,
    Span,
    RawText,
    ValidationError,
    combine,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    extract,
    filter_by_scopes,
    overlap_length,
    overlaps,
)
from adescope.combine import _witness_order


def make_scope(start: int, end: int, phenomenon=Phenomenon.NEGATION, text_id=None) -> ScopeSpan:
    cue = Cue("no", CueCategory.PRE_TRIGGER, phenomenon)
    trigger = CueMatch(cue, Span(max(0, start - 3), max(1, start - 1)), 0, 0)
    return ScopeSpan(Span(start, end), trigger, phenomenon, text_id)


spans = st.builds(
    lambda s, w: Span(s, s + w),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=10),
)


class TestOverlaps:
    def test_shared_characters_overlap(self):
        assert overlaps(Span(0, 5), Span(4, 9))
        assert overlaps(Span(4, 9), Span(0, 5))

    def test_adjacent_spans_do_not_overlap(self):
        assert not overlaps(Span(0, 5), Span(5, 9))
        assert not overlaps(Span(5, 9), Span(0, 5))

    def test_containment_overlaps(self):
        assert overlaps(Span(0, 10), Span(3, 4))

    @given(spans, spans)
    def test_symmetric_and_consistent_with_length(self, a, b):
        assert overlaps(a, b) == overlaps(b, a)
        assert overlaps(a, b) == (overlap_length(a, b) > 0)


class TestFilterByScopes:
    def test_overlapping_span_discarded(self):
        ades = EntitySet("t", frozenset({Span(33, 44)}))
        report = filter_by_scopes(ades, {make_scope(18, 44)})
        assert report.kept.spans == frozenset()
        assert [d.span for d in report.discarded] == [Span(33, 44)]

    def test_touching_scope_boundary_is_kept(self):
        # [10, 18) meets the scope [18, 30) only at the boundary; adjacency
        # is not intersection.
        ades = EntitySet("t", frozenset({Span(10, 18)}))
        report = filter_by_scopes(ades, {make_scope(18, 30)})
        assert report.kept.spans == {Span(10, 18)}

    def test_empty_scope_set_is_identity(self):
        ades = EntitySet("t", frozenset({Span(0, 4), Span(6, 9)}))
        report = filter_by_scopes(ades, set())
        assert report.kept == ades
        assert report.discarded == ()

    def test_witness_is_earliest_then_longest(self):
        ades = EntitySet("t", frozenset({Span(10, 20)}))
        candidates = {
            make_scope(12, 40),
            make_scope(5, 15),
            make_scope(5, 25),
        }
        (discard,) = filter_by_scopes(ades, candidates).discarded
        assert (discard.scope.span.start, discard.scope.span.end) == (5, 25)

    def test_mismatched_text_ids_rejected(self):
        ades = EntitySet("t1", frozenset({Span(0, 4)}))
        with pytest.raises(ValidationError):
            filter_by_scopes(ades, {make_scope(0, 4, text_id="t2")})

    def test_mismatched_long_text_ids_are_echoed_cut(self):
        ades = EntitySet("p" * 5000, frozenset({Span(0, 4)}))
        with pytest.raises(ValidationError) as caught:
            filter_by_scopes(ades, {make_scope(0, 4, text_id="s" * 5000)})
        assert str(caught.value) == (
            f"scope bound to text '{'s' * 40}…' cannot filter "
            f"predictions for text '{'p' * 40}…'"
        )

    def test_matching_text_id_accepted(self):
        ades = EntitySet("t1", frozenset({Span(0, 4)}))
        report = filter_by_scopes(ades, {make_scope(0, 4, text_id="t1")})
        assert report.kept.spans == frozenset()


class TestCombine:
    def test_either_phenomenon_discards(self):
        ades = EntitySet("t", frozenset({Span(0, 4), Span(10, 14), Span(20, 24)}))
        negs = {make_scope(0, 5)}
        specs = {make_scope(9, 12, Phenomenon.SPECULATION)}
        report = combine(ades, negs, specs)
        assert report.kept.spans == {Span(20, 24)}
        by_span = {d.span: d.phenomenon for d in report.discarded}
        assert by_span[Span(0, 4)] is Phenomenon.NEGATION
        assert by_span[Span(10, 14)] is Phenomenon.SPECULATION


@st.composite
def filter_instances(draw):
    ades = EntitySet("t", frozenset(draw(st.lists(spans, max_size=6))))
    negs = {make_scope(s.start, s.end) for s in draw(st.lists(spans, max_size=4))}
    specs = {
        make_scope(s.start, s.end, Phenomenon.SPECULATION)
        for s in draw(st.lists(spans, max_size=4))
    }
    return ades, negs, specs


class TestFilterProperties:
    @given(filter_instances())
    def test_no_scopes_keep_the_input_itself(self, instance):
        ades, _, _ = instance
        report = filter_by_scopes(ades, [])
        assert report.kept is ades
        assert report.discarded == ()

    @given(filter_instances())
    def test_partition_of_input(self, case):
        ades, negs, _ = case
        report = filter_by_scopes(ades, negs)
        discarded = {d.span for d in report.discarded}
        assert report.kept.spans | discarded == ades.spans
        assert report.kept.spans & discarded == frozenset()
        assert len(report.discarded) == len(discarded)

    @given(filter_instances())
    def test_idempotent(self, case):
        ades, negs, _ = case
        once = filter_by_scopes(ades, negs)
        twice = filter_by_scopes(once.kept, negs)
        assert twice.kept == once.kept
        assert twice.discarded == ()

    @given(filter_instances())
    def test_scope_order_is_irrelevant(self, case):
        ades, negs, specs = case
        forward = combine(ades, negs, specs)
        backward = combine(ades, specs | negs, set())
        assert forward.kept == backward.kept

    @given(filter_instances())
    def test_combined_filter_equals_intersection_of_single_filters(self, case):
        ades, negs, specs = case
        joint = combine(ades, negs, specs).kept.spans
        separate = (
            filter_by_scopes(ades, negs).kept.spans
            & filter_by_scopes(ades, specs).kept.spans
        )
        assert joint == separate

    @given(filter_instances())
    def test_filtering_never_grows_the_set(self, case):
        ades, negs, specs = case
        assert combine(ades, negs, specs).kept.spans <= ades.spans


# Coordinates from a small range, so that nested scopes, scopes sharing a
# start and scopes touching a span's edge come up often.
small_spans = st.builds(
    lambda s, w: Span(s, s + w),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=8),
)


def scope_at(span: Span, phenomenon: Phenomenon, cue_start: int) -> ScopeSpan:
    cue = Cue("no", CueCategory.PRE_TRIGGER, phenomenon)
    trigger = CueMatch(cue, Span(cue_start, cue_start + 2), 0, 0)
    return ScopeSpan(span, trigger, phenomenon)


# Same-span scopes differ by phenomenon and trigger, the witness tie-breaks.
scopes = st.builds(
    scope_at,
    small_spans,
    st.sampled_from(list(Phenomenon)),
    st.integers(min_value=0, max_value=3),
)


class TestWitnessOracle:
    @given(st.frozensets(small_spans, max_size=8), st.lists(scopes, max_size=8))
    def test_witness_is_first_overlapping_scope_in_witness_order(self, ades, scope_list):
        ordered = sorted(scope_list, key=_witness_order)
        expected = []
        for span in sorted(ades):
            witness = next((s for s in ordered if overlaps(span, s.span)), None)
            if witness is not None:
                expected.append(DiscardedSpan(span, witness, witness.phenomenon))
        report = filter_by_scopes(EntitySet("t", ades), scope_list)
        assert report.discarded == tuple(expected)
        assert report.kept.spans == ades - {d.span for d in expected}


class TestBundledLexicons:
    """No bundled ADE term is discarded by a bundled cue that it contains."""

    @pytest.mark.parametrize("term", default_ade_lexicon().terms)
    def test_a_term_in_a_neutral_sentence_survives_neg_spec(self, term):
        prefix = "the drug gave me "
        text = RawText("t1", f"{prefix}{term} today")
        extracted = extract(text, default_ade_lexicon())
        assert Span(len(prefix), len(prefix) + len(term)) in extracted.spans
        lexicons = (default_negation_lexicon(), default_speculation_lexicon())
        report = filter_by_scopes(extracted, detect(text, lexicons, window=5))
        assert report.discarded == ()
