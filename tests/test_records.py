"""Every record and plain class keeps the constructor, repr, equality, hash
and immutability of the frozen dataclass it once was.

Each case is checked against that form, rebuilt here with
``dataclasses.make_dataclass`` from the same field values.
"""

from __future__ import annotations

from dataclasses import make_dataclass

import pytest

from adescope import (
    AdeLexicon,
    CorpusPartition,
    Cue,
    CueCategory,
    CueLexicon,
    CueMatch,
    DiscardedSpan,
    DistributionReport,
    EntitySet,
    FilterReport,
    LabeledSample,
    MatchKind,
    MatchOutcome,
    MatchReport,
    Phenomenon,
    PredictionFile,
    RawText,
    SampleClass,
    SampleOutcomes,
    ScopeSpan,
    Scores,
    Span,
    TagSequence,
)
from adescope.text import Frozen

NEG = Phenomenon.NEGATION
CUE = Cue("No", CueCategory.PRE_TRIGGER, NEG)
MATCH = CueMatch(CUE, Span(0, 2), 0, 0)
SCOPE = ScopeSpan(Span(3, 7), MATCH, NEG, "t1")
TEXT = RawText("t1", "no rash")
SAMPLE = LabeledSample(TEXT, frozenset({Span(3, 7)}), SampleClass.ADE)
OUTCOME = MatchOutcome(MatchKind.TP, Span(3, 7), Span(3, 7))
ROW = SampleOutcomes("t1", SampleClass.ADE, (OUTCOME,))
COUNTS = {cls: 1 for cls in SampleClass}

# class, its fields as the dataclass declared them (init and repr fields
# only), two argument tuples that differ, and whether it compares by value.
CASES = [
    (RawText, "id content", ("t1", "no rash"), ("t2", "rash"), True),
    (
        LabeledSample,
        "text gold_spans sample_class",
        (TEXT, frozenset({Span(3, 7)}), SampleClass.ADE),
        (TEXT, frozenset(), SampleClass.NEGATED),
        True,
    ),
    (Cue, "pattern category phenomenon", ("No", CueCategory.PRE_TRIGGER, NEG),
     ("no", CueCategory.TERMINATOR, NEG), True),
    (CueMatch, "cue span first_token last_token", (CUE, Span(0, 2), 0, 0),
     (CUE, Span(0, 5), 0, 1), True),
    (ScopeSpan, "span trigger phenomenon text_id", (Span(3, 7), MATCH, NEG, "t1"),
     (Span(3, 7), MATCH, NEG, None), True),
    (EntitySet, "text_id spans", ("t1", frozenset({Span(3, 7)})), ("t1", frozenset()), True),
    (DiscardedSpan, "span scope phenomenon", (Span(3, 7), SCOPE, NEG),
     (Span(4, 7), SCOPE, NEG), True),
    (FilterReport, "kept discarded", (EntitySet("t1", frozenset()), ()),
     (EntitySet("t1", frozenset()), (DiscardedSpan(Span(3, 7), SCOPE, NEG),)), True),
    (MatchOutcome, "kind gold predicted", (MatchKind.TP, Span(3, 7), Span(3, 7)),
     (MatchKind.FP, None, Span(3, 7)), True),
    (Scores, "precision recall f1", (0.5, 0.25, 1 / 3), (0.5, 0.25, 0.0), True),
    (SampleOutcomes, "text_id sample_class outcomes", ("t1", SampleClass.ADE, (OUTCOME,)),
     ("t1", SampleClass.ADE, ()), True),
    (DistributionReport, "counts total percentages", (COUNTS, 4, {c: 25.0 for c in COUNTS}),
     (COUNTS, 5, {c: 20.0 for c in COUNTS}), True),
    (CueLexicon, "cues phenomenon", ((CUE,), NEG),
     ((CUE, Cue("not", CueCategory.PRE_TRIGGER, NEG)), NEG), True),
    (AdeLexicon, "terms", (("rash",),), (("rash", "headache"),), True),
    (CorpusPartition, "name samples", ("custom", (SAMPLE,)), ("custom", ()), True),
    (TagSequence, "tags", (("B", "I", "O"),), (("O",),), True),
    (PredictionFile, "metadata entries", ({"model": "m"}, {"t1": frozenset({Span(3, 7)})}),
     ({}, {}), False),
    (MatchReport, "samples tp par fp fn fp_by_class", ((ROW,), 1, 0, 0, 0, COUNTS),
     ((), 0, 0, 0, 0, COUNTS), False),
]


def dataclass_forms(objs, fields: list[str], by_value: bool) -> list:
    """The frozen dataclass the class was, one instance holding each of
    ``objs``' field values."""
    form = make_dataclass(type(objs[0]).__name__, fields, frozen=True, eq=by_value)
    return [form(*(getattr(obj, name) for name in fields)) for obj in objs]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:  # a dict field: the dataclass form is unhashable too
        return TypeError


@pytest.mark.parametrize(
    "cls,fields,args,other_args,by_value", CASES, ids=[case[0].__name__ for case in CASES]
)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, fields, args, other_args,
                                                       by_value):
        names = fields.split()
        positional, keyword = cls(*args), cls(**dict(zip(names, args)))
        assert [getattr(positional, n) for n in names] == [getattr(keyword, n) for n in names]

    def test_repr_is_the_dataclass_repr(self, cls, fields, args, other_args, by_value):
        obj = cls(*args)
        assert repr(obj) == repr(dataclass_forms([obj], fields.split(), by_value)[0])
        assert repr(obj).startswith(f"{cls.__name__}({fields.split()[0]}=")

    def test_equality_and_hash_match_the_dataclass_form(self, cls, fields, args, other_args,
                                                        by_value):
        names = fields.split()
        one, same, other = cls(*args), cls(*args), cls(*other_args)
        forms = dataclass_forms([one, same, other], names, by_value)
        assert one == one
        assert (one == same) is (forms[0] == forms[1]) is by_value
        assert (one == other) is (forms[0] == forms[2]) is False
        if by_value:
            assert hash_or_error(one) == hash_or_error(forms[0])
        else:
            assert hash(one) == object.__hash__(one)

    def test_assignment_raises(self, cls, fields, args, other_args, by_value):
        """Assigning or deleting any field raises, as on the frozen dataclass."""
        obj = cls(*args)
        for name in fields.split():
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert hasattr(obj, name)


FROZEN_CASES = [case[:3] for case in CASES if issubclass(case[0], Frozen)]


@pytest.mark.parametrize(
    "cls,fields,args", FROZEN_CASES, ids=[case[0].__name__ for case in FROZEN_CASES]
)
def test_repr_shows_fields_not_yet_set(cls, fields, args):
    """An instance whose ``__init__`` raised before it set every field, as a
    traceback that shows locals meets it, still has a repr."""
    first, *rest = fields.split()
    obj = cls.__new__(cls)
    unset = ", ".join(f"{name}=<unset>" for name in [first, *rest])
    assert repr(obj) == f"{cls.__name__}({unset})"
    obj._set(**{first: args[0]})
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        [f"{first}={args[0]!r}", *(f"{name}=<unset>" for name in rest)]
    ) + ")"


def test_scope_text_id_defaults_to_none():
    assert ScopeSpan(Span(3, 7), MATCH, NEG) == ScopeSpan(Span(3, 7), MATCH, NEG, None)


@pytest.mark.parametrize(
    "build",
    [
        lambda spans: LabeledSample(TEXT, spans, SampleClass.NEGATED),
        lambda spans: EntitySet("t1", spans),
    ],
    ids=["LabeledSample", "EntitySet"],
)
def test_empty_span_sets_are_one_shared_frozenset(build):
    """Spans given as an empty list, tuple, generator or frozenset become one
    shared empty frozenset, equal and hashed as any other, so the records
    compare and hash as they did with a frozenset of their own."""
    empties = [[], (), (span for span in ()), frozenset()]
    records = [build(spans) for spans in empties]
    shared = records[0][1]
    assert type(shared) is frozenset and shared == frozenset()
    assert hash(shared) == hash(frozenset())
    for record in records:
        assert record[1] is shared
        assert record == build(frozenset())
        assert hash(record) == hash((*record[:1], frozenset(), *record[2:]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: TEXT._replace(content=" "),
        lambda: RawText._make(("t1", "")),
        lambda: EntitySet("t1", ())._replace(text_id=""),
        lambda: MatchOutcome(MatchKind.FP, None, Span(0, 2))._replace(kind=MatchKind.TP),
    ],
    ids=["replace-raw-text", "make-raw-text", "replace-entity-set", "replace-outcome"],
)
def test_replace_and_make_check_their_fields(build):
    with pytest.raises(ValueError):
        build()
