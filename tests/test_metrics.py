from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from adescope import (
    EntitySet,
    LabeledSample,
    MatchKind,
    MatchOutcome,
    PredictionFile,
    RawText,
    SampleClass,
    Span,
    ValidationError,
    evaluate_corpus,
    load_predictions,
    match_spans,
    overlap_length,
    overlaps,
    relaxed_scores,
    report_to_dict,
    write_predictions,
)

counts = st.integers(min_value=0, max_value=500)


class TestRelaxedScores:
    def test_all_ones_gives_exactly_half(self):
        scores = relaxed_scores(1, 1, 1, 1)
        assert scores.precision == 0.5
        assert scores.recall == 0.5
        assert scores.f1 == 0.5

    def test_perfect_predictions(self):
        scores = relaxed_scores(7, 0, 0, 0)
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_empty_everything_scores_zero(self):
        scores = relaxed_scores(0, 0, 0, 0)
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_precision_only_zero_when_no_predictions(self):
        scores = relaxed_scores(0, 0, 0, 5)
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            relaxed_scores(-1, 0, 0, 0)

    @given(counts, counts, counts, counts)
    def test_matches_direct_formula(self, tp, par, fp, fn):
        scores = relaxed_scores(tp, par, fp, fn)
        hits = tp + 0.5 * par
        recall = hits / (tp + par + fn) if tp + par + fn else 0.0
        precision = hits / (tp + par + fp) if tp + par + fp else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert math.isclose(scores.recall, recall, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(scores.precision, precision, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(scores.f1, f1, rel_tol=0, abs_tol=1e-12)

    @given(counts, counts, counts, counts)
    def test_scores_stay_in_unit_interval(self, tp, par, fp, fn):
        scores = relaxed_scores(tp, par, fp, fn)
        for value in (scores.precision, scores.recall, scores.f1):
            assert 0.0 <= value <= 1.0


class TestMatchSpans:
    def test_exact_fp_fn_example(self):
        outcomes = match_spans([Span(0, 4), Span(10, 15)], [Span(0, 4), Span(20, 25)])
        assert [o.kind for o in outcomes] == [MatchKind.TP, MatchKind.FP, MatchKind.FN]

    def test_partial_on_overlap(self):
        (outcome,) = match_spans([Span(0, 10)], [Span(5, 12)])
        assert outcome.kind is MatchKind.PARTIAL
        assert outcome.gold == Span(0, 10)
        assert outcome.predicted == Span(5, 12)

    def test_exact_match_claims_before_partial(self):
        # The exact pair wins pass one; the leftover prediction overlaps the
        # same gold but the gold is taken, so it is an FP.
        outcomes = match_spans([Span(0, 10)], [Span(0, 10), Span(5, 12)])
        assert [o.kind for o in outcomes] == [MatchKind.TP, MatchKind.FP]

    def test_greedy_pairing_prefers_larger_overlap(self):
        outcomes = match_spans([Span(0, 10), Span(12, 20)], [Span(8, 19)])
        (partial,) = [o for o in outcomes if o.kind is MatchKind.PARTIAL]
        assert partial.gold == Span(12, 20)
        kinds = sorted(o.kind.value for o in outcomes)
        assert kinds == ["FN", "Partial"]

    def test_overlap_ties_go_to_earliest_gold(self):
        outcomes = match_spans([Span(0, 4), Span(6, 10)], [Span(2, 8)])
        (partial,) = [o for o in outcomes if o.kind is MatchKind.PARTIAL]
        assert partial.gold == Span(0, 4)

    def test_one_prediction_matches_at_most_one_gold(self):
        outcomes = match_spans([Span(0, 4), Span(5, 9)], [Span(3, 6)])
        kinds = [o.kind for o in outcomes]
        assert kinds.count(MatchKind.PARTIAL) == 1
        assert kinds.count(MatchKind.FN) == 1

    def test_overlapping_gold_rejected(self):
        with pytest.raises(ValidationError):
            match_spans([Span(0, 5), Span(3, 8)], [])

    # Every (kind, gold given, prediction given) shape, and whether an outcome
    # takes it. A TP's prediction is its gold span; the others' overlaps it.
    @pytest.mark.parametrize(
        "kind,gold,predicted,accepted",
        [
            (MatchKind.TP, Span(0, 4), Span(0, 4), True),
            (MatchKind.TP, Span(0, 4), None, False),
            (MatchKind.TP, None, Span(0, 4), False),
            (MatchKind.TP, None, None, False),
            (MatchKind.PARTIAL, Span(0, 4), Span(2, 6), True),
            (MatchKind.PARTIAL, Span(0, 4), None, False),
            (MatchKind.PARTIAL, None, Span(2, 6), False),
            (MatchKind.PARTIAL, None, None, False),
            (MatchKind.FP, Span(0, 4), Span(2, 6), False),
            (MatchKind.FP, Span(0, 4), None, False),
            (MatchKind.FP, None, Span(2, 6), True),
            (MatchKind.FP, None, None, False),
            (MatchKind.FN, Span(0, 4), Span(2, 6), False),
            (MatchKind.FN, Span(0, 4), None, True),
            (MatchKind.FN, None, Span(2, 6), False),
            (MatchKind.FN, None, None, False),
        ],
    )
    def test_every_outcome_shape(self, kind, gold, predicted, accepted):
        if accepted:
            assert MatchOutcome(kind, gold, predicted) == (kind, gold, predicted)
            return
        message = f"{kind.value} outcome with gold={gold} predicted={predicted}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            MatchOutcome(kind, gold, predicted)

    def test_outcome_field_constraints(self):
        with pytest.raises(ValidationError):
            MatchOutcome(MatchKind.FP, Span(0, 2), Span(0, 2))
        with pytest.raises(ValidationError):
            MatchOutcome(MatchKind.TP, Span(0, 2), Span(0, 3))
        with pytest.raises(ValidationError):
            MatchOutcome(MatchKind.PARTIAL, Span(0, 2), Span(5, 8))


random_predictions = st.lists(
    st.builds(
        lambda s, w: Span(s, s + w),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=8,
)


@st.composite
def gold_and_predictions(draw):
    cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=60), max_size=10)))
    gold = []
    for left, right in zip(cuts, cuts[1:]):
        if right > left and draw(st.booleans()):
            gold.append(Span(left, right))
    return gold, draw(random_predictions)


class TestMatchProperties:
    @given(gold_and_predictions())
    def test_every_span_appears_exactly_once(self, case):
        gold, predicted = case
        outcomes = match_spans(gold, predicted)
        golds = [o.gold for o in outcomes if o.gold is not None]
        preds = [o.predicted for o in outcomes if o.predicted is not None]
        assert sorted(golds) == sorted(set(gold))
        assert sorted(preds) == sorted(set(predicted))

    @given(gold_and_predictions())
    def test_count_conservation(self, case):
        gold, predicted = case
        outcomes = match_spans(gold, predicted)
        kinds = [o.kind for o in outcomes]
        tp, par = kinds.count(MatchKind.TP), kinds.count(MatchKind.PARTIAL)
        fp, fn = kinds.count(MatchKind.FP), kinds.count(MatchKind.FN)
        assert tp + par + fn == len(set(gold))
        assert tp + par + fp == len(set(predicted))


def all_pairs_match(gold, predicted) -> list[MatchOutcome]:
    """Reference matcher: lists partial candidates over every open pair."""
    gold_list = sorted(set(gold))
    gold_open = set(gold_list)
    pred_open = set(predicted)
    outcomes = []
    for span in gold_list:
        if span in pred_open:
            outcomes.append(MatchOutcome(MatchKind.TP, span, span))
            gold_open.discard(span)
            pred_open.discard(span)
    candidates = [
        (overlap_length(pred, gld), gld, pred)
        for pred in pred_open
        for gld in gold_open
        if overlaps(pred, gld)
    ]
    candidates.sort(key=lambda c: (-c[0], c[1].start, c[1].end, c[2].start, c[2].end))
    for _, gld, pred in candidates:
        if gld in gold_open and pred in pred_open:
            outcomes.append(MatchOutcome(MatchKind.PARTIAL, gld, pred))
            gold_open.discard(gld)
            pred_open.discard(pred)
    outcomes += [MatchOutcome(MatchKind.FP, None, span) for span in sorted(pred_open)]
    outcomes += [MatchOutcome(MatchKind.FN, span, None) for span in sorted(gold_open)]
    return outcomes


@st.composite
def dense_gold_and_predictions(draw):
    """Touching golds, plus predictions that cover runs of golds or touch one."""
    cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=40), min_size=2, max_size=10)))
    gold = [Span(left, right) for left, right in zip(cuts, cuts[1:]) if draw(st.booleans())]
    predicted = draw(random_predictions)
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if gold else 0):
        first = draw(st.integers(min_value=0, max_value=len(gold) - 1))
        last = draw(st.integers(min_value=first, max_value=len(gold) - 1))
        start = gold[first].start + draw(st.integers(min_value=-2, max_value=2))
        end = gold[last].end + draw(st.integers(min_value=-2, max_value=2))
        if 0 <= start < end:
            predicted.append(Span(start, end))
        # Touching either edge of a gold shares no character with it.
        width = draw(st.integers(min_value=1, max_value=3))
        predicted.append(Span(gold[last].end, gold[last].end + width))
        if gold[first].start >= width:
            predicted.append(Span(gold[first].start - width, gold[first].start))
    return gold, predicted


class TestMatchOracle:
    @given(dense_gold_and_predictions())
    def test_equals_all_pairs_matching(self, case):
        gold, predicted = case
        assert match_spans(gold, predicted) == all_pairs_match(gold, predicted)


def sample(sid: str, content: str, cls: SampleClass, *gold: Span) -> LabeledSample:
    return LabeledSample(RawText(sid, content), frozenset(gold), cls)


CORPUS = [
    sample("a1", "headache city over here", SampleClass.ADE, Span(0, 8)),
    sample("a2", "the nausea and the chills", SampleClass.ADE, Span(4, 10), Span(19, 25)),
    sample("x1", "refill day at the pharmacy", SampleClass.NO_ADE),
    sample("n1", "no headache this week", SampleClass.NEGATED),
    sample("s1", "maybe a headache coming", SampleClass.SPECULATED),
]


class TestEvaluateCorpus:
    def test_aggregates_and_fp_by_class(self):
        predictions = [
            EntitySet("a1", frozenset({Span(0, 8)})),
            EntitySet("a2", frozenset({Span(4, 10), Span(12, 15)})),
            EntitySet("n1", frozenset({Span(3, 11)})),
            EntitySet("s1", frozenset({Span(8, 16)})),
        ]
        report = evaluate_corpus(CORPUS, predictions)
        assert (report.tp, report.par, report.fp, report.fn) == (2, 0, 3, 1)
        assert report.fp_by_class[SampleClass.ADE] == 1
        assert report.fp_by_class[SampleClass.NEGATED] == 1
        assert report.fp_by_class[SampleClass.SPECULATED] == 1
        assert report.fp_by_class[SampleClass.NO_ADE] == 0
        assert report.scores == relaxed_scores(2, 0, 3, 1)

    def test_pairs_from_a_loaded_prediction_file_count_as_entity_sets(self, tmp_path):
        entity_sets = [
            EntitySet("a1", frozenset({Span(0, 8)})),
            EntitySet("a2", frozenset({Span(4, 10), Span(12, 15)})),
            EntitySet("n1", frozenset({Span(3, 11)})),
        ]
        path = tmp_path / "preds.tsv"
        write_predictions(PredictionFile({}, entity_sets), path)
        pairs = load_predictions(path).entries.items()
        from_pairs = evaluate_corpus(CORPUS, pairs)
        from_sets = evaluate_corpus(CORPUS, entity_sets)
        assert from_pairs.samples == from_sets.samples
        assert (from_pairs.tp, from_pairs.par, from_pairs.fp, from_pairs.fn) == (2, 0, 2, 1)
        assert from_pairs.fp_by_class == from_sets.fp_by_class
        twice = [*pairs, ("n1", frozenset())]
        with pytest.raises(ValidationError) as caught:
            evaluate_corpus(CORPUS, twice)
        assert str(caught.value) == "duplicate predictions for text id 'n1'"

    def test_missing_prediction_counts_as_empty(self):
        report = evaluate_corpus(CORPUS, [])
        assert (report.tp, report.fp, report.fn) == (0, 0, 3)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError, match="zz9"):
            evaluate_corpus(CORPUS, [EntitySet("zz9", frozenset({Span(0, 2)}))])

    @pytest.mark.parametrize(
        "count,listed",
        [(5, "zz0, zz1, zz2, zz3, zz4"), (7, "zz0, zz1, zz2, zz3, zz4 and 2 more")],
    )
    def test_unknown_ids_are_listed_up_to_five(self, count, listed):
        predictions = [EntitySet(f"zz{i}", frozenset()) for i in reversed(range(count))]
        with pytest.raises(ValidationError) as caught:
            evaluate_corpus(CORPUS, predictions)
        assert str(caught.value) == f"predictions reference unknown text ids: {listed}"

    def test_duplicate_prediction_entry_rejected(self):
        twice = [
            EntitySet("a1", frozenset({Span(0, 8)})),
            EntitySet("a1", frozenset()),
        ]
        with pytest.raises(ValidationError):
            evaluate_corpus(CORPUS, twice)

    def test_long_duplicate_and_unknown_ids_are_echoed_cut(self):
        long_id = "a" * 5000
        twice = [EntitySet(long_id, frozenset()), EntitySet(long_id, frozenset())]
        with pytest.raises(ValidationError) as caught:
            evaluate_corpus(CORPUS, twice)
        assert str(caught.value) == f"duplicate predictions for text id '{'a' * 40}…'"
        with pytest.raises(ValidationError) as caught:
            evaluate_corpus(CORPUS, [EntitySet(long_id, frozenset())])
        assert str(caught.value) == f"predictions reference unknown text ids: {'a' * 40}…"

    def test_report_dict_layout(self):
        report = evaluate_corpus(CORPUS, [EntitySet("a1", frozenset({Span(0, 8)}))])
        payload = report_to_dict(report)
        assert list(payload["fp_by_class"]) == ["S", "N", "A", "X"]
        assert set(payload["counts"]) == {"tp", "partial", "fp", "fn"}
        assert payload["scores"]["precision"] == 1.0
        assert "samples" not in payload
        verbose = report_to_dict(report, verbose=True)
        assert {row["id"] for row in verbose["samples"]} == {s.text.id for s in CORPUS}
