"""In-process run of the CLI chain through each layer's public functions.

:func:`library_chain` performs, stage by stage, the library calls the CLI
subcommands make: load, per-text work, write. Rendering rows, argument
parsing, interpreter start and process pools are left out, so the CLI wall
time minus a stage's time here is that subcommand's CLI overhead.

With a :class:`Tracer` every call into a layer becomes a span (name, start,
end, parent, run id) nesting workload -> stage -> layer call. Calls that
layers make into ``text`` and ``scope`` from inside the package are wrapped
for the duration of the traced run, so ``baseline.extract`` and
``scope.detect_*`` get their tokenize, cue scan and scope resolution as
child spans. Counts are taken at the same boundaries. Spans stay in memory
until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import adescope.baseline
import adescope.scope
from adescope.baseline import default_ade_lexicon, extract
from adescope.combine import EntitySet, combine
from adescope.corpus import (
    CorpusPartition,
    PredictionFile,
    compose_training_set,
    load_corpus,
    load_predictions,
    write_corpus,
    write_predictions,
)
from adescope.metrics import evaluate_corpus, report_to_dict
from adescope.scope import (
    default_negation_lexicon,
    default_speculation_lexicon,
    detect_negation,
    detect_speculation,
    prefilter,
)
from adescope.text import tokenize

from workloads import Workload

LAYERS = ("corpus", "text", "scope", "baseline", "combine", "metrics")


class NullTracer:
    """Runs the calls with nothing recorded: the untraced library time."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, amount=1):
        pass


class Tracer:
    """Spans and counts recorded around layer calls, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int | None] = [None]

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._stack[-1]
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return dict(totals)

    def write(self, path: Path) -> None:
        lines = (
            json.dumps({"run": self.run_id, "id": i, "parent": parent, "name": name,
                        "start": start, "end": end})
            for i, (name, start, end, parent) in enumerate(self.spans)
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _wrapped_package_calls(tracer: Tracer):
    """Route the package's own calls into ``text`` and ``scope`` through spans."""
    find_cues = adescope.scope.find_cues
    resolve_scopes = adescope.scope.resolve_scopes

    def traced_tokenize(text):
        tokens = tracer.call("text.tokenize", tokenize, text)
        tracer.count("text.tokens", len(tokens))
        return tokens

    def traced_find_cues(tokens, lexicon):
        matches = tracer.call("scope.find_cues", find_cues, tokens, lexicon)
        tracer.count("scope.cue_scans")
        tracer.count("scope.cue_hits", bool(matches))
        tracer.count("scope.cue_matches", len(matches))
        return matches

    def traced_resolve_scopes(text, tokens, matches, window):
        scopes = tracer.call("scope.resolve_scopes", resolve_scopes,
                             text, tokens, matches, window)
        tracer.count("scope.scopes", len(scopes))
        return scopes

    wrappers = {
        (adescope.baseline, "tokenize"): traced_tokenize,
        (adescope.scope, "tokenize"): traced_tokenize,
        (adescope.scope, "find_cues"): traced_find_cues,
        (adescope.scope, "resolve_scopes"): traced_resolve_scopes,
    }
    original = {key: getattr(*key) for key in wrappers}
    for (module, name), wrapper in wrappers.items():
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for (module, name), fn in original.items():
            setattr(module, name, fn)


def _load(tr, path: Path):
    tr.count("corpus.bytes_read", path.stat().st_size)
    return tr.call("corpus.load_corpus", load_corpus, path)


def _load_predictions(tr, path: Path):
    tr.count("corpus.bytes_read", path.stat().st_size)
    return tr.call("corpus.load_predictions", load_predictions, path)


def _extract(tr, wl: Workload, out: Path):
    corpus = _load(tr, wl.corpus)
    lexicon = default_ade_lexicon()
    entries = {}
    for sample in corpus.samples:
        spans = tr.call("baseline.extract", extract, sample.text, lexicon).spans
        tr.count("baseline.spans", len(spans))
        entries[sample.text.id] = spans
    predictions = PredictionFile({"model": "lexicon-baseline"}, entries)
    tr.call("corpus.write_predictions", write_predictions, predictions, out / "preds.tsv")
    return predictions


def _detect(tr, wl: Workload):
    for detect in (detect_negation, detect_speculation):
        name = f"scope.{detect.__name__}"
        for sample in _load(tr, wl.corpus).samples:
            tr.call(name, detect, sample.text)


def _filter(tr, wl: Workload, predictions_path: Path, out: Path):
    corpus = _load(tr, wl.corpus)
    predictions = _load_predictions(tr, predictions_path)
    entries = {}
    for sample in corpus.samples:
        text = sample.text
        spans = predictions.spans_for(text.id)
        negations = tr.call("scope.detect_negation", detect_negation, text)
        speculations = tr.call("scope.detect_speculation", detect_speculation, text)
        tr.count("combine.span_scope_pairs", len(spans) * (len(negations) + len(speculations)))
        report = tr.call("combine.filter", combine, EntitySet(text.id, spans),
                         negations, speculations)
        if text.id in predictions.entries:
            entries[text.id] = report.kept.spans
    filtered = PredictionFile(dict(predictions.metadata), entries)
    tr.call("corpus.write_predictions", write_predictions, filtered, out / "filtered.tsv")
    return filtered


def _evaluate(tr, corpus_path: Path, predictions_path: Path):
    corpus = _load(tr, corpus_path)
    predictions = _load_predictions(tr, predictions_path)
    tr.count("metrics.pred_gold_pairs", sum(
        len(predictions.spans_for(s.text.id)) * len(s.gold_spans) for s in corpus.samples
    ))
    entity_sets = [EntitySet(i, spans) for i, spans in predictions.entries.items()]
    report = tr.call("metrics.evaluate", evaluate_corpus, corpus.samples, entity_sets)
    tr.count("metrics.partial", report.par)
    return report


def _prefilter(tr, wl: Workload, out: Path):
    corpus = _load(tr, wl.corpus)
    lexicons = [default_negation_lexicon(), default_speculation_lexicon()]
    kept = tr.call("scope.prefilter", prefilter, corpus.samples, lexicons)
    partition = CorpusPartition(corpus.name, tuple(kept))
    tr.call("corpus.write_corpus", write_corpus, partition, out / "kept.tsv")


def _compose(tr, wl: Workload, out: Path):
    base, n_path, s_path = wl.compose
    base = _load(tr, base)
    n_pool = _load(tr, n_path) if n_path else None
    s_pool = _load(tr, s_path) if s_path else None
    composed = tr.call("corpus.compose_training_set", compose_training_set, base,
                       n_pool is not None, s_pool is not None, n_pool, s_pool)
    tr.call("corpus.write_corpus", write_corpus, composed, out / "composed.tsv")


def library_chain(wl: Workload, filter_input: Path, out: Path, tracer=None):
    """Run every stage in-process; return stage times and the results to check.

    ``filter_input`` is the prediction file the CLI ``filter`` reads. Stage
    times come from the clock, traced or not.
    """
    tr = tracer or NullTracer()
    steps = {
        "extract": lambda: _extract(tr, wl, out),
        "detect": lambda: _detect(tr, wl),
        "filter": lambda: _filter(tr, wl, filter_input, out),
        "evaluate": lambda: _evaluate(tr, wl.corpus, out / "filtered.tsv"),
        "prefilter": lambda: _prefilter(tr, wl, out),
        "compose": lambda: _compose(tr, wl, out),
    }
    times: dict[str, float] = {}
    results: dict = {}

    def run_stages():
        for stage, step in steps.items():
            start = time.perf_counter()
            results[stage] = tr.call(f"stage:{stage}", step)
            times[stage] = time.perf_counter() - start

    with _wrapped_package_calls(tracer) if tracer else nullcontext():
        tr.call(f"workload:{wl.name}", run_stages)
    return times, results


def report_counts(report) -> dict:
    """Match counts in the shape of the CLI ``evaluate`` JSON."""
    payload = report_to_dict(report)
    return {"counts": payload["counts"], "fp_by_class": payload["fp_by_class"]}


def evaluate_file(corpus_path: Path, predictions_path: Path) -> dict:
    """In-process evaluation of a prediction file the CLI wrote."""
    return report_counts(_evaluate(NullTracer(), corpus_path, predictions_path))
