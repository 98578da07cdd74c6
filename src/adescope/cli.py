"""Command line pipeline.

Subcommands: ``extract`` (run the lexicon baseline over a corpus),
``detect`` (emit negation or speculation scopes), ``filter`` (drop
predictions that intersect scopes), ``evaluate`` (relaxed scoring with
per-class false positives), ``compose`` (assemble a training corpus) and
``prefilter`` (keep cue-bearing samples).

Exit codes: 0 on success, 1 on usage errors (bad flags, missing files),
2 on data errors (unparseable files, unknown ids). A subcommand writes
all of its output files or none of them. Outputs are deterministic:
identical inputs produce byte-identical files. ``--jobs`` is accepted and
checked but every subcommand runs in one process: a process pool lost to
the serial path on every benchmark workload.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .baseline import default_ade_lexicon, extract, load_ade_lexicon
from .combine import EntitySet, filter_by_scopes
from .corpus import (
    CorpusPartition,
    PredictionFile,
    compose_training_set,
    decode_json,
    escape_tsv,
    load_corpus,
    load_predictions,
    read_text,
    validate_predictions,
    write_corpus,
    write_lines,
    write_outputs,
    write_predictions,
)
from .errors import ValidationError, echo, echo_list
from .metrics import evaluate_corpus, write_report
from .scope import (
    DEFAULT_WINDOW,
    CueLexicon,
    Phenomenon,
    ScopeSpan,
    bundled_lexicon,
    detect,
    load_lexicon,
    prefilter,
)
from .text import REPORT_CLASS_ORDER, RawText

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

FILTER_CHOICES = ("none", "neg", "spec", "neg+spec")

DETECT_HEADER = "id\tphenomenon\tscope\ttrigger\tcue"
AUDIT_HEADER = "id\tspan\tphenomenon\tscope\tcue"


# A message shows at most this many characters of a missing file's path:
# an ordinary path reads whole, and one of thousands does not flood stderr.
_PATH_CHARS = 200


class UsageError(Exception):
    """A problem with flags or referenced paths; maps to exit code 1."""


# Pipeline settings: a flag overrides the --config file, which overrides
# the default. Each is (default, accepted JSON types, their description).
_SETTINGS = {
    "negation_lexicon": (None, (str, type(None)), "a string or null"),
    "speculation_lexicon": (None, (str, type(None)), "a string or null"),
    "ade_lexicon": (None, (str, type(None)), "a string or null"),
    "window": (DEFAULT_WINDOW, (int,), "an integer"),
    "filters": ("neg+spec", (str,), "a string"),
    "jobs": (1, (int,), "an integer"),
}

# Each cue phenomenon by its name in selections; its lexicon's setting is
# "<phenomenon.value>_lexicon".
_CUE_LEXICONS = {"neg": Phenomenon.NEGATION, "spec": Phenomenon.SPECULATION}


def load_config(path: str | Path) -> dict:
    """Read a JSON object of settings, checking each key and its JSON type."""
    data = decode_json(read_text(path), str(path))
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = data.keys() - _SETTINGS.keys()
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {echo_list(unknown)}")
    for key, value in data.items():
        _, types, expected = _SETTINGS[key]
        # bool is an int subclass, but true is not a window or a job count.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValidationError(f"{path}: {key}: expected {expected}, got {echo(value)}")
    return data


def _probe(check: Callable[[Path], bool], path: Path, name: str) -> bool:
    """``check(path)``; an ``OSError``, such as a file name too long, is a
    usage error naming the flag or setting.
    """
    try:
        return check(path)
    except OSError as exc:
        raise UsageError(f"{name}: {exc.strerror}: {echo(str(path), str)}") from None


def _require_file(path: str, name: str) -> Path:
    """``path`` as a Path; a missing file is a usage error naming the flag or setting."""
    resolved = Path(path)
    if not _probe(Path.is_file, resolved, name):
        raise UsageError(f"{name}: file not found: {echo(path, str, _PATH_CHARS)}")
    return resolved


def _require_out_dirs(args: argparse.Namespace) -> None:
    """A missing directory for ``--out`` or ``--audit``, or an ``--audit``
    naming the ``--out`` file, is a usage error, raised before any input is
    read or any output written.
    """
    audit = getattr(args, "audit", None)
    for flag, path in (("--out", args.out), ("--audit", audit)):
        if path is not None and not _probe(Path.is_dir, Path(path).parent, flag):
            shown = echo(Path(path).parent, str, _PATH_CHARS)
            raise UsageError(f"{flag}: directory not found: {shown}")
    # realpath, unlike Path.resolve, does not raise on a symlink loop.
    if audit is not None and os.path.realpath(audit) == os.path.realpath(args.out):
        raise UsageError(f"--audit and --out name the same file: {echo(audit, str, _PATH_CHARS)}")


def _resolve_settings(args: argparse.Namespace) -> None:
    """Set each setting no flag gave on ``args`` from ``--config`` or its
    default, then check the ranges of window, jobs and filters.
    """
    if getattr(args, "lexicon", None) is not None:  # detect's override
        setattr(args, f"{_CUE_LEXICONS[args.phenomenon].value}_lexicon", args.lexicon)
    config = {}
    if args.config:
        _require_file(args.config, "--config")
        config = load_config(args.config)
    for name, (default, _, _) in _SETTINGS.items():
        if getattr(args, name, None) is None:
            setattr(args, name, config.get(name, default))
    if args.window < 1:
        raise UsageError(f"--window must be >= 1, got {echo(args.window, str)}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {echo(args.jobs, str)}")
    if args.filters not in FILTER_CHOICES:
        raise UsageError(
            f"--filters must be one of {', '.join(FILTER_CHOICES)}, got {echo(args.filters)}"
        )


def _load_corpus_arg(args: argparse.Namespace) -> CorpusPartition:
    return load_corpus(_require_file(args.corpus, "--corpus"), format=args.format)


def _load_predictions_arg(args: argparse.Namespace, corpus: CorpusPartition) -> PredictionFile:
    predictions = load_predictions(_require_file(args.predictions, "--predictions"))
    try:
        validate_predictions(predictions, corpus)
    except ValidationError as exc:
        # Either file can be the faulty one.
        raise ValidationError(f"{args.predictions} against {args.corpus}: {exc}") from None
    return predictions


def _selected_lexicons(args: argparse.Namespace, selection: str) -> tuple[CueLexicon, ...]:
    """The cue lexicons a selection such as ``neg+spec`` names; none for ``none``."""
    lexicons = []
    for name, phenomenon in _CUE_LEXICONS.items():
        if name in selection:
            setting = f"{phenomenon.value}_lexicon"
            path = getattr(args, setting)
            lexicons.append(
                load_lexicon(_require_file(path, setting), phenomenon) if path
                else bundled_lexicon(phenomenon)
            )
    return tuple(lexicons)


def _span_field(span) -> str:
    return f"{span.start}:{span.end}"


def _cue_text(text: RawText, scope: ScopeSpan) -> str:
    trigger = scope.trigger.span
    return text.content[trigger.start : trigger.end]


def _write_rows(header: str, rows: Iterable[tuple[str, ...]], path: Path) -> None:
    """Write a TSV of sorted rows under its header, fields escaped like corpus text."""
    write_lines(path, [header, *("\t".join(map(escape_tsv, row)) for row in sorted(rows))])


def _cmd_extract(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    lexicon = (
        load_ade_lexicon(_require_file(args.ade_lexicon, "ade_lexicon"))
        if args.ade_lexicon
        else default_ade_lexicon()
    )
    entity_sets = [extract(sample.text, lexicon) for sample in corpus.samples]
    predictions = PredictionFile(
        {"model": "lexicon-baseline", "terms": str(len(lexicon.terms))},
        {es.text_id: es.spans for es in entity_sets},
    )
    write_outputs([(args.out, partial(write_predictions, predictions))])
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    texts = [sample.text for sample in _load_corpus_arg(args).samples]
    lexicons = _selected_lexicons(args, args.phenomenon)
    scope_sets = [detect(text, lexicons, args.window) for text in texts]
    rows = [
        (
            text.id,
            scope.phenomenon.value,
            _span_field(scope.span),
            _span_field(scope.trigger.span),
            _cue_text(text, scope),
        )
        for text, scopes in zip(texts, scope_sets)
        for scope in scopes
    ]
    write_outputs([(args.out, partial(_write_rows, DETECT_HEADER, rows))])
    return EXIT_OK


def _cmd_filter(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    predictions = _load_predictions_arg(args, corpus)
    lexicons = _selected_lexicons(args, args.filters)
    texts = [corpus.by_id[text_id].text for text_id in predictions.entries]
    reports = [
        filter_by_scopes(EntitySet(text.id, spans), detect(text, lexicons, args.window))
        for text, spans in zip(texts, predictions.entries.values())
    ]
    entries = {report.kept.text_id: report.kept.spans for report in reports}
    filtered = PredictionFile(dict(predictions.metadata), entries)
    rows = [
        (
            text.id,
            _span_field(discard.span),
            discard.phenomenon.value,
            _span_field(discard.scope.span),
            _cue_text(text, discard.scope),
        )
        for text, report in zip(texts, reports)
        for discard in report.discarded
    ]
    audit_path = args.audit if args.audit is not None else f"{args.out}.audit"
    write_outputs([
        (args.out, partial(write_predictions, filtered)),
        (audit_path, partial(_write_rows, AUDIT_HEADER, rows)),
    ])
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    predictions = _load_predictions_arg(args, corpus)
    entity_sets = [
        EntitySet(text_id, spans) for text_id, spans in predictions.entries.items()
    ]
    report = evaluate_corpus(corpus.samples, entity_sets)
    write_outputs([(args.out, partial(write_report, report, verbose=args.verbose))])

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
    if args.add_n and not args.n_pool:
        raise UsageError("--n-pool is required with --add-n")
    if args.add_s and not args.s_pool:
        raise UsageError("--s-pool is required with --add-s")
    corpora = (("--base", args.base), ("--n-pool", args.n_pool), ("--s-pool", args.s_pool))
    base, n_pool, s_pool = (
        None if path is None else load_corpus(_require_file(path, flag), format=args.format)
        for flag, path in corpora
    )
    composed = compose_training_set(
        base, add_n=args.add_n, add_s=args.add_s, n_pool=n_pool, s_pool=s_pool
    )
    write_outputs([(args.out, partial(write_corpus, composed, format=args.format))])
    return EXIT_OK


def _cmd_prefilter(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    kept = prefilter(corpus.samples, _selected_lexicons(args, args.phenomena))
    kept_corpus = CorpusPartition(corpus.name, tuple(kept))
    write_outputs([(args.out, partial(write_corpus, kept_corpus, format=args.format))])
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
            "--jobs", type=int, default=None, help="must be >= 1; every run is serial"
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
    _add_common(p, jobs=False)
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
    # A run builds many objects and no reference cycles, so the cyclic
    # collector would only rescan them: it is paused, then restored as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_OK
        try:
            _require_out_dirs(args)
            _resolve_settings(args)
            return args.handler(args)
        except (UsageError, ValidationError, OSError) as exc:
            print(f"adescope: error: {exc}", file=sys.stderr)
            return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
