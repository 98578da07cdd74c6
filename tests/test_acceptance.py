"""Acceptance gate.

Eight checks, each printed as one live ``acceptance n/8 <name>: PASS|FAIL``
line so the suite's verdict is readable straight off the terminal. Every
check uses a fixed seed; reruns are deterministic.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from adescope import (
    CorpusPartition,
    Cue,
    CueCategory,
    CueMatch,
    EntitySet,
    LabeledSample,
    Phenomenon,
    RawText,
    SampleClass,
    ScopeSpan,
    Span,
    bio_to_spans,
    combine,
    default_ade_lexicon,
    detect_negation,
    detect_speculation,
    distribution_report,
    evaluate_corpus,
    extract,
    filter_by_scopes,
    load_corpus,
    load_predictions,
    relaxed_scores,
    spans_to_bio,
    tokenize,
    write_corpus,
)
from adescope.cli import main
from adescope.metrics import MatchKind


@contextmanager
def announce(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number}/8 {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number}/8 {name}: PASS")


def random_span(rng: random.Random, limit: int = 50, width: int = 10) -> Span:
    start = rng.randrange(limit)
    return Span(start, start + rng.randint(1, width))


def make_scope(rng: random.Random, phenomenon: Phenomenon) -> ScopeSpan:
    cue = Cue("no", CueCategory.PRE_TRIGGER, phenomenon)
    trigger = CueMatch(cue, Span(0, 2), 0, 0)
    return ScopeSpan(random_span(rng), trigger, phenomenon)


def test_criterion_1_metric_formula_fidelity(capsys):
    with announce(capsys, 1, "metric-formula-fidelity"):
        exact = relaxed_scores(1, 1, 1, 1)
        assert (exact.precision, exact.recall, exact.f1) == (0.5, 0.5, 0.5)

        rng = random.Random(101)
        cases = [(0, 0, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5), (0, 4, 0, 0)]
        cases += [
            tuple(rng.randint(0, 200) for _ in range(4)) for _ in range(1000 - len(cases))
        ]
        started = time.perf_counter()
        for tp, par, fp, fn in cases:
            scores = relaxed_scores(tp, par, fp, fn)
            hits = tp + 0.5 * par
            recall = hits / (tp + par + fn) if tp + par + fn else 0.0
            precision = hits / (tp + par + fp) if tp + par + fp else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            assert abs(scores.recall - recall) <= 1e-12
            assert abs(scores.precision - precision) <= 1e-12
            assert abs(scores.f1 - f1) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"1000 tuples took {elapsed:.2f}s"


def test_criterion_2_filter_matches_brute_force_oracle(capsys):
    def brute_kept(ades: frozenset[Span], scopes: list[ScopeSpan]) -> frozenset[Span]:
        return frozenset(
            a
            for a in ades
            if not any(
                set(range(a.start, a.end)) & set(range(s.span.start, s.span.end))
                for s in scopes
            )
        )

    with announce(capsys, 2, "span-filter-oracle-equivalence"):
        rng = random.Random(202)
        started = time.perf_counter()
        for _ in range(10_000):
            ades = frozenset(
                random_span(rng) for _ in range(rng.randint(0, 6))
            )
            negs = [
                make_scope(rng, Phenomenon.NEGATION) for _ in range(rng.randint(0, 4))
            ]
            specs = [
                make_scope(rng, Phenomenon.SPECULATION)
                for _ in range(rng.randint(0, 4))
            ]
            entity_set = EntitySet("t", ades)

            neg_kept = filter_by_scopes(entity_set, negs).kept.spans
            spec_kept = filter_by_scopes(entity_set, specs).kept.spans
            assert neg_kept == brute_kept(ades, negs)
            assert spec_kept == brute_kept(ades, specs)
            assert combine(entity_set, negs, specs).kept.spans == neg_kept & spec_kept
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"10000 instances took {elapsed:.2f}s"


def test_criterion_3_bio_round_trip(capsys):
    vocabulary = [
        "on", "med", "day", "pain", "x1", "don't", "#tag", "@who",
        "uh", "two", "clinic", "no", "queue", "rash",
    ]
    with announce(capsys, 3, "bio-round-trip"):
        rng = random.Random(303)
        started = time.perf_counter()
        for _ in range(10_000):
            words = rng.choices(vocabulary, k=rng.randint(1, 12))
            text = ""
            for word in words:
                text += word + rng.choice([" ", "  ", "\n"])
            tokens = tokenize(text)
            spans: set[Span] = set()
            index = 0
            while index < len(tokens):
                if rng.random() < 0.35:
                    last = min(len(tokens) - 1, index + rng.randint(0, 2))
                    spans.add(Span(tokens[index].span.start, tokens[last].span.end))
                    index = last + 1
                else:
                    index += 1
            tags = spans_to_bio(tokens, spans)
            assert bio_to_spans(tokens, tags) == spans
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"10000 round trips took {elapsed:.2f}s"


def test_criterion_4_worked_negation_example(capsys, tmp_path):
    sentence = "Metoprolol is NOT known to cause hypokalemia"
    with announce(capsys, 4, "worked-negation-example"):
        text = RawText("w1", sentence)
        ades = extract(text, default_ade_lexicon())
        assert {sentence[s.start : s.end] for s in ades.spans} == {"hypokalemia"}
        (ade_span,) = ades.spans

        scopes = detect_negation(text)
        assert any(
            s.span.start < ade_span.end and ade_span.start < s.span.end
            for s in scopes
        )

        report = filter_by_scopes(ades, scopes)
        assert report.kept.spans == frozenset()
        (discard,) = report.discarded
        trigger = discard.scope.trigger.span
        assert sentence[trigger.start : trigger.end] == "NOT"
        assert discard.phenomenon is Phenomenon.NEGATION

        spec_report = filter_by_scopes(ades, detect_speculation(text))
        assert spec_report.kept.spans == ades.spans
        assert spec_report.discarded == ()

        # Same story through the command line, audit row included.
        corpus = tmp_path / "one.tsv"
        corpus.write_text(
            f"id\ttext\tclass\tspans\nw1\t{sentence}\tN\t\n", encoding="utf-8"
        )
        preds = tmp_path / "preds.tsv"
        filtered = tmp_path / "filtered.tsv"
        audit = tmp_path / "audit.tsv"
        assert main(["extract", "--corpus", str(corpus), "--out", str(preds)]) == 0
        assert (
            main(
                [
                    "filter",
                    "--corpus",
                    str(corpus),
                    "--predictions",
                    str(preds),
                    "--out",
                    str(filtered),
                    "--audit",
                    str(audit),
                    "--filters",
                    "neg",
                ]
            )
            == 0
        )
        assert load_predictions(filtered).entries["w1"] == frozenset()
        audit_rows = audit.read_text(encoding="utf-8").splitlines()[1:]
        assert len(audit_rows) == 1 and audit_rows[0].endswith("\tNOT")


def test_criterion_5_bundled_corpus_distribution(capsys, corpus_dir):
    anchors = {
        "train": {
            SampleClass.SPECULATED: (227, 10.80),
            SampleClass.NEGATED: (251, 11.94),
            SampleClass.ADE: (846, 40.25),
            SampleClass.NO_ADE: (778, 37.01),
        },
        "test": {
            SampleClass.SPECULATED: (73, 13.52),
            SampleClass.NEGATED: (73, 13.52),
            SampleClass.ADE: (200, 37.04),
            SampleClass.NO_ADE: (194, 35.93),
        },
    }
    totals = {"train": 2102, "test": 540}
    with announce(capsys, 5, "bundled-corpus-distribution"):
        started = time.perf_counter()
        for split, expected in anchors.items():
            partition = load_corpus(corpus_dir / f"{split}.tsv")
            report = distribution_report(partition)
            assert report.total == totals[split]
            for cls, (count, percentage) in expected.items():
                assert report.counts[cls] == count, f"{split} {cls.value}"
                assert abs(report.percentages[cls] - percentage) <= 0.01
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"loading both splits took {elapsed:.2f}s"


def test_criterion_6_filtering_monotonicity(capsys):
    cue_words = ["not", "no", "never", "maybe", "possible", "might", "but", "without"]
    term_words = ["pain", "nausea", "rash", "headaches", "dizziness"]
    filler = ["the", "day", "on", "med", "two", "clinic", "refill", "queue"]
    vocabulary = cue_words + term_words + filler

    def random_sample(rng: random.Random, sid: str) -> tuple[LabeledSample, EntitySet]:
        words = rng.choices(vocabulary, k=rng.randint(4, 10))
        content = " ".join(words)
        tokens = tokenize(content)
        runs = []
        for _ in range(rng.randint(0, 3)):
            first = rng.randrange(len(tokens))
            last = min(len(tokens) - 1, first + rng.randint(0, 1))
            runs.append(Span(tokens[first].span.start, tokens[last].span.end))
        if rng.random() < 0.5:
            gold_start = rng.randrange(len(tokens))
            gold = frozenset({Span(tokens[gold_start].span.start, tokens[gold_start].span.end)})
            sample_class = SampleClass.ADE
        else:
            gold = frozenset()
            sample_class = rng.choice(
                [SampleClass.NO_ADE, SampleClass.NEGATED, SampleClass.SPECULATED]
            )
        sample = LabeledSample(RawText(sid, content), gold, sample_class)
        return sample, EntitySet(sid, frozenset(runs))

    with announce(capsys, 6, "filtering-monotonicity"):
        rng = random.Random(606)
        for _ in range(1000):
            pairs = [random_sample(rng, f"t{i}") for i in range(rng.randint(2, 4))]
            samples = [sample for sample, _ in pairs]
            baseline_sets = [entity_set for _, entity_set in pairs]
            baseline = evaluate_corpus(samples, baseline_sets)

            negs = [detect_negation(sample.text) for sample in samples]
            specs = [detect_speculation(sample.text) for sample in samples]
            selections = {
                "neg": [
                    filter_by_scopes(es, n).kept
                    for es, n in zip(baseline_sets, negs)
                ],
                "spec": [
                    filter_by_scopes(es, s).kept
                    for es, s in zip(baseline_sets, specs)
                ],
                "neg+spec": [
                    combine(es, n, s).kept
                    for es, n, s in zip(baseline_sets, negs, specs)
                ],
            }
            for kept_sets in selections.values():
                filtered = evaluate_corpus(samples, kept_sets)
                assert filtered.fp <= baseline.fp
                assert filtered.fn >= baseline.fn
                for before, after, kept, original in zip(
                    baseline.samples, filtered.samples, kept_sets, baseline_sets
                ):
                    assert kept.spans <= original.spans
                    kinds_before = [outcome.kind for outcome in before.outcomes]
                    kinds_after = [outcome.kind for outcome in after.outcomes]
                    assert kinds_after.count(MatchKind.FP) <= kinds_before.count(MatchKind.FP)
                    assert kinds_after.count(MatchKind.FN) >= kinds_before.count(MatchKind.FN)

            for entity_set in baseline_sets:
                identity = filter_by_scopes(entity_set, set())
                assert identity.kept.spans == entity_set.spans
                assert identity.discarded == ()


def test_criterion_7_end_to_end_fixture_tally(capsys, e2e_corpus_path, e2e_tally):
    with announce(capsys, 7, "end-to-end-fixture-tally"):
        corpus = load_corpus(e2e_corpus_path)
        lexicon = default_ade_lexicon()
        baseline_sets = [extract(sample.text, lexicon) for sample in corpus.samples]

        expected = e2e_tally["unfiltered"]
        baseline = evaluate_corpus(corpus.samples, baseline_sets)
        assert sum(len(es.spans) for es in baseline_sets) == expected["predicted"]
        assert {
            "tp": baseline.tp,
            "partial": baseline.par,
            "fp": baseline.fp,
            "fn": baseline.fn,
        } == expected["counts"]
        assert {
            cls.value: count for cls, count in baseline.fp_by_class.items()
        } == expected["fp_by_class"]

        filtered_sets = [
            combine(
                entity_set,
                detect_negation(sample.text),
                detect_speculation(sample.text),
            ).kept
            for sample, entity_set in zip(corpus.samples, baseline_sets)
        ]
        expected = e2e_tally["neg+spec"]
        filtered = evaluate_corpus(corpus.samples, filtered_sets)
        assert sum(len(es.spans) for es in filtered_sets) == expected["predicted"]
        assert {
            cls.value: count for cls, count in filtered.fp_by_class.items()
        } == expected["fp_by_class"]
        assert {
            "tp": filtered.tp,
            "partial": filtered.par,
            "fp": filtered.fp,
            "fn": filtered.fn,
        } == expected["counts"]

        # The reduction lands in the scoped classes; out-of-scope false
        # positives (here the lone A-class one) are untouched.
        assert baseline.fp_by_class[SampleClass.NEGATED] == 5
        assert filtered.fp_by_class[SampleClass.NEGATED] == 1
        assert baseline.fp_by_class[SampleClass.SPECULATED] == 3
        assert filtered.fp_by_class[SampleClass.SPECULATED] == 1
        assert (
            filtered.fp_by_class[SampleClass.ADE]
            == baseline.fp_by_class[SampleClass.ADE]
            == 1
        )


def test_criterion_8_cli_determinism(capsys, tmp_path, e2e_corpus_path):
    corpus = str(e2e_corpus_path)

    def run(argv: list[str]) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def twice(name: str, argv_for) -> None:
        outs = []
        stdouts = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            stdouts.append(run(argv_for(str(out))))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} not byte-identical across runs"
        assert stdouts[0] == stdouts[1]

    with announce(capsys, 8, "cli-determinism"):
        preds = tmp_path / "preds.tsv"
        run(["extract", "--corpus", corpus, "--out", str(preds)])

        twice("extract", lambda out: ["extract", "--corpus", corpus, "--out", out])
        twice(
            "extract-jobs2",
            lambda out: ["extract", "--corpus", corpus, "--out", out, "--jobs", "2"],
        )
        assert (tmp_path / "extract-a").read_bytes() == (
            tmp_path / "extract-jobs2-a"
        ).read_bytes()

        twice(
            "detect",
            lambda out: [
                "detect", "--corpus", corpus, "--phenomenon", "neg", "--out", out,
            ],
        )
        twice(
            "detect-jobs2",
            lambda out: [
                "detect", "--corpus", corpus, "--phenomenon", "neg", "--out", out,
                "--jobs", "2",
            ],
        )
        assert (tmp_path / "detect-a").read_bytes() == (
            tmp_path / "detect-jobs2-a"
        ).read_bytes()

        def filter_argv(out: str, *extra: str) -> list[str]:
            return [
                "filter", "--corpus", corpus, "--predictions", str(preds),
                "--out", out, "--audit", f"{out}.audit", *extra,
            ]

        twice("filter", filter_argv)
        twice("filter-jobs2", lambda out: filter_argv(out, "--jobs", "2"))
        assert (tmp_path / "filter-a").read_bytes() == (
            tmp_path / "filter-jobs2-a"
        ).read_bytes()
        assert (tmp_path / "filter-a.audit").read_bytes() == (
            tmp_path / "filter-jobs2-a.audit"
        ).read_bytes()

        twice(
            "evaluate",
            lambda out: [
                "evaluate", "--corpus", corpus, "--predictions", str(preds),
                "--out", out,
            ],
        )

        split = load_corpus(e2e_corpus_path)

        def by_class(*classes: str) -> tuple:
            return tuple(
                s for s in split.samples if s.sample_class.value in classes
            )

        base_path = tmp_path / "base.tsv"
        n_path = tmp_path / "n.tsv"
        s_path = tmp_path / "s.tsv"
        write_corpus(CorpusPartition("custom", by_class("A", "X")), base_path)
        write_corpus(CorpusPartition("custom", by_class("N")), n_path)
        write_corpus(CorpusPartition("custom", by_class("S")), s_path)
        twice(
            "compose",
            lambda out: [
                "compose", "--base", str(base_path), "--n-pool", str(n_path),
                "--s-pool", str(s_path), "--add-n", "--add-s", "--out", out,
            ],
        )

        twice(
            "prefilter",
            lambda out: ["prefilter", "--corpus", corpus, "--out", out],
        )
