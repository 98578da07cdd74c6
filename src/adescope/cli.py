"""Command line pipeline.

Subcommands: ``extract`` (run the lexicon baseline over a corpus),
``detect`` (emit negation or speculation scopes), ``filter`` (drop
predictions that intersect scopes), ``evaluate`` (relaxed scoring with
per-class false positives), ``compose`` (assemble a training corpus) and
``prefilter`` (keep cue-bearing samples).

Exit codes: 0 on success, 1 on usage errors (bad flags, missing files),
2 on data errors (unparseable files, unknown ids). Outputs are
deterministic: identical inputs produce byte-identical files, whatever
``--jobs`` says.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .baseline import AdeLexicon, default_ade_lexicon, extract, load_ade_lexicon
from .combine import EntitySet, FilterReport, filter_by_scopes
from .corpus import (
    CorpusPartition,
    PredictionFile,
    compose_training_set,
    load_corpus,
    load_predictions,
    read_text,
    validate_predictions,
    write_corpus,
    write_lines,
    write_predictions,
)
from .errors import ValidationError
from .metrics import evaluate_corpus, write_report
from .scope import (
    DEFAULT_WINDOW,
    CueLexicon,
    Phenomenon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    load_lexicon,
    prefilter,
)
from .text import REPORT_CLASS_ORDER, RawText

__all__ = ["PipelineConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

FILTER_CHOICES = ("none", "neg", "spec", "neg+spec")

DETECT_HEADER = "id\tphenomenon\tscope\ttrigger\tcue"
AUDIT_HEADER = "id\tspan\tphenomenon\tscope\tcue"


class UsageError(Exception):
    """A problem with flags or referenced paths; maps to exit code 1."""


@dataclass
class PipelineConfig:
    """Pipeline settings; a JSON config file fills in what flags do not."""

    negation_lexicon: str | None = None
    speculation_lexicon: str | None = None
    ade_lexicon: str | None = None
    window: int = DEFAULT_WINDOW
    filters: str = "neg+spec"
    jobs: int = 1

    def validate(self) -> None:
        if self.window < 1:
            raise UsageError(f"--window must be >= 1, got {self.window}")
        if self.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {self.jobs}")
        if self.filters not in FILTER_CHOICES:
            raise UsageError(
                f"--filters must be one of {', '.join(FILTER_CHOICES)}, "
                f"got {self.filters!r}"
            )


# The JSON type each config key takes, as (accepted types, description).
_CONFIG_TYPES = {
    "negation_lexicon": ((str, type(None)), "a string or null"),
    "speculation_lexicon": ((str, type(None)), "a string or null"),
    "ade_lexicon": ((str, type(None)), "a string or null"),
    "window": ((int,), "an integer"),
    "filters": ((str,), "a string"),
    "jobs": ((int,), "an integer"),
}


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON object of :class:`PipelineConfig` fields."""
    raw = read_text(path)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_TYPES))
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        types, expected = _CONFIG_TYPES[key]
        # bool is an int subclass, but true is not a window or a job count.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValidationError(f"{path}: {key}: expected {expected}, got {value!r}")
    return replace(PipelineConfig(), **data)


def _require_file(path: str, name: str) -> Path:
    """``path`` as a Path; a missing file is a usage error naming the flag or setting."""
    resolved = Path(path)
    if not resolved.is_file():
        raise UsageError(f"{name}: file not found: {path}")
    return resolved


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        _require_file(args.config, "--config")
        config = load_config(args.config)
    overrides = {}
    for name in _CONFIG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    config = replace(config, **overrides)
    config.validate()
    return config


def _load_corpus_arg(args: argparse.Namespace) -> CorpusPartition:
    return load_corpus(_require_file(args.corpus, "--corpus"), format=args.format)


def _load_predictions_arg(args: argparse.Namespace, corpus: CorpusPartition) -> PredictionFile:
    predictions = load_predictions(_require_file(args.predictions, "--predictions"))
    validate_predictions(predictions, corpus)
    return predictions


# Per cue phenomenon: its name in selections, its setting, its default lexicon.
_CUE_LEXICONS = (
    ("neg", "negation_lexicon", Phenomenon.NEGATION, default_negation_lexicon),
    ("spec", "speculation_lexicon", Phenomenon.SPECULATION, default_speculation_lexicon),
)


def _selected_lexicons(config: PipelineConfig, selection: str) -> tuple[CueLexicon, ...]:
    """The cue lexicons a selection such as ``neg+spec`` names; none for ``none``."""
    lexicons = []
    for name, setting, phenomenon, default in _CUE_LEXICONS:
        if name in selection:
            path = getattr(config, setting)
            lexicons.append(
                load_lexicon(_require_file(path, setting), phenomenon) if path else default()
            )
    return tuple(lexicons)


def _ade_lexicon(config: PipelineConfig) -> AdeLexicon:
    if config.ade_lexicon:
        return load_ade_lexicon(_require_file(config.ade_lexicon, "ade_lexicon"))
    return default_ade_lexicon()


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map, fanned out over processes when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _span_field(span) -> str:
    return f"{span.start}:{span.end}"


# The filter worker lives at module level so process pools can pickle it.


def _filter_worker(
    item: tuple[RawText, frozenset],
    lexicons: tuple[CueLexicon, ...],
    window: int,
) -> FilterReport:
    text, spans = item
    return filter_by_scopes(EntitySet(text.id, spans), detect(text, lexicons, window))


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = _load_corpus_arg(args)
    lexicon = _ade_lexicon(config)
    entity_sets = _parallel_map(
        partial(extract, lexicon=lexicon),
        [sample.text for sample in corpus.samples],
        config.jobs,
    )
    predictions = PredictionFile(
        {"model": "lexicon-baseline", "terms": str(len(lexicon.terms))},
        {es.text_id: es.spans for es in entity_sets},
    )
    write_predictions(predictions, args.out)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = _load_corpus_arg(args)
    if args.lexicon is not None:
        setting = next(setting for name, setting, *_ in _CUE_LEXICONS if name == args.phenomenon)
        config = replace(config, **{setting: args.lexicon})
    scope_sets = _parallel_map(
        partial(
            detect,
            lexicons=_selected_lexicons(config, args.phenomenon),
            window=config.window,
        ),
        [sample.text for sample in corpus.samples],
        config.jobs,
    )
    rows = []
    for sample, scopes in zip(corpus.samples, scope_sets):
        content = sample.text.content
        for scope in scopes:
            trigger = scope.trigger.span
            rows.append(
                (
                    sample.text.id,
                    scope.phenomenon.value,
                    _span_field(scope.span),
                    _span_field(trigger),
                    content[trigger.start : trigger.end],
                )
            )
    rows.sort()
    write_lines(args.out, [DETECT_HEADER, *("\t".join(row) for row in rows)])
    return EXIT_OK


def _cmd_filter(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = _load_corpus_arg(args)
    predictions = _load_predictions_arg(args, corpus)
    items = [
        (sample.text, predictions.spans_for(sample.text.id))
        for sample in corpus.samples
    ]
    reports = _parallel_map(
        partial(
            _filter_worker,
            lexicons=_selected_lexicons(config, config.filters),
            window=config.window,
        ),
        items,
        config.jobs,
    )
    entries = {}
    audit_rows = []
    for sample, report in zip(corpus.samples, reports):
        text_id = sample.text.id
        if text_id in predictions.entries:
            entries[text_id] = report.kept.spans
        content = sample.text.content
        for discard in report.discarded:
            trigger = discard.scope.trigger.span
            audit_rows.append(
                (
                    text_id,
                    _span_field(discard.span),
                    discard.phenomenon.value,
                    _span_field(discard.scope.span),
                    content[trigger.start : trigger.end],
                )
            )
    write_predictions(PredictionFile(dict(predictions.metadata), entries), args.out)

    audit_path = args.audit if args.audit is not None else f"{args.out}.audit"
    audit_rows.sort()
    write_lines(audit_path, [AUDIT_HEADER, *("\t".join(row) for row in audit_rows)])
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _resolve_config(args)
    corpus = _load_corpus_arg(args)
    predictions = _load_predictions_arg(args, corpus)
    entity_sets = [
        EntitySet(text_id, spans) for text_id, spans in predictions.entries.items()
    ]
    report = evaluate_corpus(corpus.samples, entity_sets)
    write_report(report, args.out, verbose=args.verbose)

    scores = report.scores
    fp_cells = "  ".join(
        f"{cls.value}={report.fp_by_class.get(cls, 0)}" for cls in REPORT_CLASS_ORDER
    )
    print(f"samples={len(corpus.samples)}  tp={report.tp}  partial={report.par}  fn={report.fn}")
    print(f"fp={report.fp}  ({fp_cells})")
    print(
        f"precision={scores.precision:.4f}  recall={scores.recall:.4f}  "
        f"f1={scores.f1:.4f}"
    )
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> int:
    _resolve_config(args)
    if args.add_n and not args.n_pool:
        raise UsageError("--n-pool is required with --add-n")
    if args.add_s and not args.s_pool:
        raise UsageError("--s-pool is required with --add-s")
    base = load_corpus(_require_file(args.base, "--base"), format=args.format)
    n_pool = (
        load_corpus(_require_file(args.n_pool, "--n-pool"), format=args.format)
        if args.n_pool
        else None
    )
    s_pool = (
        load_corpus(_require_file(args.s_pool, "--s-pool"), format=args.format)
        if args.s_pool
        else None
    )
    composed = compose_training_set(
        base, add_n=args.add_n, add_s=args.add_s, n_pool=n_pool, s_pool=s_pool
    )
    write_corpus(composed, args.out, format=args.format)
    return EXIT_OK


def _cmd_prefilter(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = _load_corpus_arg(args)
    kept = prefilter(corpus.samples, _selected_lexicons(config, args.phenomena))
    write_corpus(
        CorpusPartition(corpus.name, tuple(kept)), args.out, format=args.format
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the pipeline reserves 2 for data."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, *, jobs: bool = True) -> None:
    parser.add_argument("--config", help="JSON file of pipeline settings")
    parser.add_argument(
        "--format",
        choices=("tsv", "jsonl"),
        default="tsv",
        help="corpus file format (default: tsv)",
    )
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=None, help="parallel workers (default: 1)"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adescope",
        description="Scope-aware filtering and evaluation for adverse event extraction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "extract", parents=[], help="run the lexicon baseline over a corpus"
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="prediction file to write")
    p.add_argument("--ade-lexicon", dest="ade_lexicon", help="term list override")
    _add_common(p)
    p.set_defaults(handler=_cmd_extract)

    p = subparsers.add_parser("detect", help="emit negation or speculation scopes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--phenomenon", choices=("neg", "spec"), required=True)
    p.add_argument("--out", required=True, help="scope TSV to write")
    p.add_argument("--lexicon", help="cue lexicon override for the chosen phenomenon")
    p.add_argument("--window", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = subparsers.add_parser("filter", help="drop predictions inside detected scopes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="filtered prediction file to write")
    p.add_argument("--audit", help="audit TSV (default: <out>.audit)")
    p.add_argument("--filters", choices=FILTER_CHOICES, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--neg-lexicon", dest="negation_lexicon")
    p.add_argument("--spec-lexicon", dest="speculation_lexicon")
    _add_common(p)
    p.set_defaults(handler=_cmd_filter)

    p = subparsers.add_parser("evaluate", help="relaxed scoring against gold spans")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="JSON report to write")
    p.add_argument("--verbose", action="store_true", help="include per-sample outcomes")
    _add_common(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = subparsers.add_parser("compose", help="assemble a training corpus from pools")
    p.add_argument("--base", required=True, help="corpus of A and X samples")
    p.add_argument("--n-pool", dest="n_pool", help="corpus of N samples")
    p.add_argument("--s-pool", dest="s_pool", help="corpus of S samples")
    p.add_argument("--add-n", dest="add_n", action="store_true")
    p.add_argument("--add-s", dest="add_s", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p, jobs=False)
    p.set_defaults(handler=_cmd_compose)

    p = subparsers.add_parser("prefilter", help="keep samples containing trigger cues")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--phenomena", choices=FILTER_CHOICES[1:], default="neg+spec")
    p.add_argument("--neg-lexicon", dest="negation_lexicon")
    p.add_argument("--spec-lexicon", dest="speculation_lexicon")
    _add_common(p, jobs=False)
    p.set_defaults(handler=_cmd_prefilter)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"adescope: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, OSError) as exc:
        print(f"adescope: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
