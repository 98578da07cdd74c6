"""Corpus and prediction file IO, composition and class distribution.

Corpus format (UTF-8 TSV, ``format="tsv"``)::

    id<TAB>text<TAB>class<TAB>spans

with a literal header row. ``class`` is one of A, X, N, S. ``spans`` holds
``start:end`` pairs joined by ``;`` (empty when the sample has none).
Backslash, tab, newline and carriage return inside the text are escaped as
``\\\\``, ``\\t``, ``\\n`` and ``\\r``. A JSON-lines adapter
(``format="jsonl"``) reads and writes one ``{id, text, class, spans}``
object per line.

Prediction files map text ids to predicted spans, one ``id<TAB>spans`` row
per text, preceded by a ``# key: value`` metadata header block naming the
producer (model name, run id). Loading after writing is the identity for
both formats: a writer refuses an id or metadata its file cannot hold.
"""

from __future__ import annotations

import codecs
import errno
import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ParseError, ValidationError, echo, echo_list, echo_span
from .text import REPORT_CLASS_ORDER, Frozen, LabeledSample, RawText, SampleClass, Span

__all__ = [
    "CorpusPartition",
    "DistributionReport",
    "PredictionFile",
    "CORPUS_HEADER",
    "load_corpus",
    "write_corpus",
    "compose_training_set",
    "distribution_report",
    "load_predictions",
    "write_predictions",
    "validate_predictions",
    "read_text",
    "escape_tsv",
    "lexicon_lines",
    "decode_json",
    "write_lines",
    "write_outputs",
]

CORPUS_HEADER = "id\ttext\tclass\tspans"
_JSONL_KEYS = ("id", "text", "class", "spans")

_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.?)", re.S)
_ESCAPE = {ord("\\"): "\\\\", ord("\t"): "\\t", ord("\n"): "\\n", ord("\r"): "\\r"}

# The member of each class letter, without an enum call per row.
_CLASS_BY_LETTER = {cls.value: cls for cls in SampleClass}


class CorpusPartition(Frozen):
    """An ordered collection of labeled samples with unique ids, under a
    free label ``name`` that no output carries (a loaded file's stem).
    ``by_id`` maps each id to its sample.
    """

    _FIELDS = ("name", "samples")

    def __init__(self, name: str, samples: Iterable[LabeledSample]) -> None:
        samples = tuple(samples)
        by_id: dict[str, LabeledSample] = {}
        for sample in samples:
            if sample.text.id in by_id:
                raise ValidationError(f"duplicate sample id {echo(sample.text.id)}")
            by_id[sample.text.id] = sample
        self._set(name=name, samples=samples, by_id=by_id)

    def __len__(self) -> int:
        return len(self.samples)


class DistributionReport(NamedTuple):
    """Per-class counts and percentages for a partition."""

    counts: Mapping[SampleClass, int]
    total: int
    percentages: Mapping[SampleClass, float]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": {c.value: self.counts[c] for c in REPORT_CLASS_ORDER},
            "percentages": {c.value: self.percentages[c] for c in REPORT_CLASS_ORDER},
        }


def read_text(path: Union[str, Path]) -> str:
    """Decode an input file as UTF-8 text with universal newlines.

    A leading byte order mark is dropped. Undecodable bytes raise
    :class:`ParseError` naming the file and line.
    """
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
    return content.replace("\r\n", "\n").replace("\r", "\n")


def lexicon_lines(content: str) -> list[tuple[int, str]]:
    """Numbered, stripped lines of a lexicon file; blank and ``#`` lines are skipped."""
    lines = (line.strip() for line in content.split("\n"))
    return [(n, line) for n, line in enumerate(lines, 1) if line and line[0] != "#"]


def decode_json(content: str, where: str):
    """Parse one JSON document; any fault is a :class:`ParseError` at ``where``."""
    try:
        return json.loads(content)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except ValueError:  # an integer literal longer than the interpreter converts
        reason = "integer literal too long"
    except RecursionError:
        reason = "nested too deeply"
    raise ParseError(f"{where}: invalid JSON ({reason})")


def write_lines(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Write lines as a UTF-8 file, joined by ``\\n`` with one trailing newline."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_outputs(
    outputs: Iterable[tuple[Union[str, Path], Callable[[Path], None]]]
) -> None:
    """Call each ``write(path)`` for its ``target``, all or nothing.

    A new or regular-file target is written to a temporary sibling, and the
    siblings replace their targets, keeping their permissions, only once
    every write has succeeded; on failure they are removed. Any other
    existing target (a symlink such as ``/dev/stdout``, a FIFO) is written
    directly, because a rename would replace it rather than write into it;
    such writes come after the staged ones, and a directory target fails
    before anything is written.
    """
    outputs = [(Path(target), write) for target, write in outputs]
    for target, _ in outputs:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    direct: list[tuple[Path, Callable[[Path], None]]] = []
    staged: list[tuple[Path, Path]] = []
    try:
        for target, write in outputs:
            if target.is_symlink() or (target.exists() and not target.is_file()):
                direct.append((target, write))
                continue
            temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
            staged.append((temp, target))
            try:
                write(temp)
            except OSError as exc:  # name the output, not its temporary sibling
                raise OSError(exc.errno, exc.strerror, str(target)) from None
            if target.exists():
                shutil.copymode(target, temp)
        for target, write in direct:
            write(target)
    except BaseException:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        raise
    for temp, target in staged:
        os.replace(temp, target)


def _warn(message: str, *args: object) -> None:
    """Log a warning on this module's logger. Only an empty corpus warns,
    so :mod:`logging` is imported here rather than by every run.
    """
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _unescape(match: re.Match) -> str:
    try:
        return _UNESCAPE[match[1]]
    except KeyError:
        raise ValidationError("bad escape sequence in text field") from None


def _offset(digits: str) -> int:
    # int() alone would also take signs, spaces, "_" and non-ASCII digits.
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(digits)
    return int(digits)


def _parse_span_field(field: str) -> list[Span]:
    spans: list[Span] = []
    if not field:
        return spans
    for chunk in field.split(";"):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValidationError(f"malformed span {echo(chunk)}, expected start:end")
        try:
            start, end = _offset(parts[0]), _offset(parts[1])
        except ValueError:
            raise ValidationError(f"non-integer span offsets in {echo(chunk)}") from None
        spans.append(Span(start, end))
    return spans


def _format_span_field(spans: Iterable[Span]) -> str:
    if not spans:
        return ""
    return ";".join([f"{s.start}:{s.end}" for s in sorted(spans)])


def escape_tsv(text: str) -> str:
    """``text`` with backslash, tab, newline and carriage return escaped."""
    if "\\" in text or "\t" in text or "\n" in text or "\r" in text:
        return text.translate(_ESCAPE)
    return text


def _decode_tsv(text: str, spans: str) -> tuple[str, list[Span]]:
    if "\\" in text:
        text = _ESCAPE_RE.sub(_unescape, text)
    return text, _parse_span_field(spans)


def _decode_jsonl(text: str, spans) -> tuple[str, list[Span]]:
    pairs = spans if isinstance(spans, list) else [spans]
    for pair in pairs:
        # type(), not isinstance(): JSON true loads as a bool, an int subclass.
        offsets_ok = isinstance(pair, list) and all(type(offset) is int for offset in pair)
        if not offsets_ok or len(pair) != 2:
            raise ValidationError(f"malformed span {echo(pair, json.dumps)}, expected [start, end]")
    return text, [Span(start, end) for start, end in pairs]


def _row_sample(
    row: Sequence, source: str, lineno: int, seen: set[str], decode
) -> LabeledSample:
    """The sample of an ``(id, text, class, spans)`` row; ``decode`` reads its
    format's text and spans. Faults raise :class:`ParseError` at
    ``source:lineno``, which names the id once it is known to be new; the
    location is formatted only then.
    """
    sample_id, text, class_name, spans = row
    if not sample_id:
        raise ParseError(f"{source}:{lineno}: empty sample id")
    if sample_id in seen:
        raise ParseError(f"{source}:{lineno}: duplicate sample id {echo(sample_id)}")
    seen.add(sample_id)
    try:
        sample_class = _CLASS_BY_LETTER[class_name]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON class
        raise ParseError(
            f"{source}:{lineno} (id {echo(sample_id)}): unknown class {echo(class_name)}"
        ) from None
    try:
        content, span_list = decode(text, spans)
        return LabeledSample(RawText(sample_id, content), frozenset(span_list), sample_class)
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno} (id {echo(sample_id)}): {exc}") from None


def _parse_corpus_tsv(raw: str, source: str) -> list[LabeledSample]:
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        _warn("corpus file %s is empty", source)
        return []
    if lines[0] != CORPUS_HEADER:
        raise ParseError(f"{source}:1: expected header {CORPUS_HEADER!r}")
    samples: list[LabeledSample] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"{source}:{lineno}: expected 4 tab-separated fields")
        samples.append(_row_sample(fields, source, lineno, seen, _decode_tsv))
    if not samples:
        _warn("corpus file %s contains no samples", source)
    return samples


def _parse_corpus_jsonl(raw: str, source: str) -> list[LabeledSample]:
    samples: list[LabeledSample] = []
    seen: set[str] = set()
    for lineno, line in enumerate(raw.split("\n"), 1):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        record = decode_json(line, where)
        if not isinstance(record, dict):
            raise ParseError(f"{where}: expected a JSON object")
        missing = set(_JSONL_KEYS) - set(record)
        if missing:
            raise ParseError(f"{where}: missing keys {sorted(missing)}")
        for key in ("id", "text"):
            if not isinstance(record[key], str):
                raise ParseError(f"{where}: {key} must be a string")
        row = [record[key] for key in _JSONL_KEYS]
        samples.append(_row_sample(row, source, lineno, seen, _decode_jsonl))
    if not samples:
        _warn("corpus file %s contains no samples", source)
    return samples


def load_corpus(path: Union[str, Path], format: str = "tsv") -> CorpusPartition:
    """Load a corpus file. ``format`` is ``tsv`` (native) or ``jsonl``.

    The partition is named after the file's stem. Row-level problems (bad
    class letter, span out of bounds, class and span mismatch, duplicate
    ids) raise :class:`ParseError` naming the file, line and sample id; a
    message echoes at most 40 characters of any input value. An empty file
    loads as an empty partition with a logged warning.
    """
    path = Path(path)
    raw = read_text(path)
    if format == "tsv":
        samples = _parse_corpus_tsv(raw, str(path))
    elif format == "jsonl":
        samples = _parse_corpus_jsonl(raw, str(path))
    else:
        raise ValidationError(f"unknown corpus format {echo(format)}")
    return CorpusPartition(path.stem, tuple(samples))


def write_corpus(
    partition: CorpusPartition, path: Union[str, Path], format: str = "tsv"
) -> None:
    """Write a partition in the chosen format; loading it back is the identity."""
    if format == "tsv":
        lines = [CORPUS_HEADER]
        for sample in partition.samples:
            sample_id = sample.text.id
            if "\t" in sample_id or "\n" in sample_id or "\r" in sample_id:
                raise ValidationError(
                    f"sample id {echo(sample_id)} cannot be serialised as TSV"
                )
            content = escape_tsv(sample.text.content)
            spans = _format_span_field(sample.gold_spans)
            lines.append(f"{sample_id}\t{content}\t{sample.sample_class.value}\t{spans}")
    elif format == "jsonl":
        records = (
            {"id": s.text.id, "text": s.text.content, "class": s.sample_class.value,
             "spans": sorted(s.gold_spans)}
            for s in partition.samples
        )
        lines = [json.dumps(record, ensure_ascii=False) for record in records]
    else:
        raise ValidationError(f"unknown corpus format {echo(format)}")
    write_lines(path, lines)


def compose_training_set(
    base: CorpusPartition,
    add_n: bool = False,
    add_s: bool = False,
    n_pool: CorpusPartition | None = None,
    s_pool: CorpusPartition | None = None,
) -> CorpusPartition:
    """Extend a base corpus of A and X samples with negated and speculated pools.

    The output keeps a stable order: base samples first, then the N pool,
    then the S pool. The base must contain only classes A and X, each pool
    only its own class, and ids must not collide.
    """
    for sample in base.samples:
        if sample.sample_class not in (SampleClass.ADE, SampleClass.NO_ADE):
            raise ValidationError(
                f"base sample {echo(sample.text.id)} has class "
                f"{sample.sample_class.value}; base must contain only A and X"
            )
    samples = list(base.samples)
    for flag, pool, wanted, label in (
        (add_n, n_pool, SampleClass.NEGATED, "n_pool"),
        (add_s, s_pool, SampleClass.SPECULATED, "s_pool"),
    ):
        if not flag:
            continue
        if pool is None:
            raise ValidationError(f"{label} is required when its add flag is set")
        for sample in pool.samples:
            if sample.sample_class is not wanted:
                raise ValidationError(
                    f"{label} sample {echo(sample.text.id)} has class "
                    f"{sample.sample_class.value}, expected {wanted.value}"
                )
        samples.extend(pool.samples)
    return CorpusPartition(base.name, tuple(samples))


def distribution_report(partition: CorpusPartition) -> DistributionReport:
    """Count samples per class; percentages are rounded to 2 decimals."""
    counts = {cls: 0 for cls in SampleClass}
    for sample in partition.samples:
        counts[sample.sample_class] += 1
    total = len(partition.samples)
    percentages = {
        cls: round(100.0 * counts[cls] / total, 2) if total else 0.0
        for cls in SampleClass
    }
    return DistributionReport(counts, total, percentages)


class PredictionFile(Frozen):
    """Predicted spans per text id, plus producer metadata; compared by identity."""

    _FIELDS = ("metadata", "entries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, metadata: Mapping[str, str], entries: Mapping[str, frozenset[Span]]
    ) -> None:
        # A pair must load back unchanged from its "# key: value" line.
        for key, value in metadata.items():
            if any(c in key or c in value for c in "\n\r"):
                raise ValidationError("prediction metadata must be single-line")
            if ":" in key or key != key.strip() or value != value.strip():
                raise ValidationError(
                    f"prediction metadata {echo(key)}: {echo(value)} has a ':' in its key "
                    "or whitespace at an end"
                )
        self._set(metadata=metadata, entries=entries)

    def spans_for(self, text_id: str) -> frozenset[Span]:
        """Spans predicted for a text; ids without an entry are empty."""
        return self.entries.get(text_id, frozenset())


def load_predictions(path: Union[str, Path]) -> PredictionFile:
    """Load a prediction file; malformed rows raise with their line number."""
    path = Path(path)
    metadata: dict[str, str] = {}
    entries: dict[str, frozenset[Span]] = {}
    in_header = True
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if in_header:
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
            continue
        in_header = False
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'id<TAB>spans'")
        text_id, span_field = fields
        if not text_id:
            raise ParseError(f"{path}:{lineno}: empty text id")
        if text_id in entries:
            raise ParseError(f"{path}:{lineno}: duplicate entry for id {echo(text_id)}")
        try:
            entries[text_id] = frozenset(_parse_span_field(span_field))
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return PredictionFile(metadata, entries)


def unknown_ids_error(ids: Iterable[str]) -> ValidationError:
    """The error for predictions of ``ids`` that their corpus lacks."""
    return ValidationError(f"predictions reference unknown text ids: {echo_list(ids)}")


def validate_predictions(predictions: PredictionFile, corpus: CorpusPartition) -> None:
    """Check that predictions fit their corpus.

    Every prediction id must name a corpus sample and every span must lie
    inside that sample's text; otherwise :class:`ValidationError` is raised.
    """
    unknown = predictions.entries.keys() - corpus.by_id.keys()
    if unknown:
        raise unknown_ids_error(unknown)
    for text_id, spans in predictions.entries.items():
        length = len(corpus.by_id[text_id].text.content)
        for span in spans:
            if span.end > length:
                raise ValidationError(
                    f"prediction for {echo(text_id)}: span {echo_span(*span)} "
                    f"exceeds text length {length}"
                )


def write_predictions(predictions: PredictionFile, path: Union[str, Path]) -> None:
    """Write a prediction file: metadata header, then one row per id.

    Rows are ordered by id and spans by offset, so serialisation is
    canonical and writing after loading reproduces a canonical file byte
    for byte.
    """
    lines = [f"# {key}: {value}" for key, value in predictions.metadata.items()]
    for text_id in sorted(predictions.entries):
        # A blank row is skipped on load, and a "#" line is metadata.
        if (
            "\t" in text_id or "\n" in text_id or "\r" in text_id
            or not text_id.strip() or text_id.startswith("#")
        ):
            raise ValidationError(
                f"text id {echo(text_id)} cannot be serialised in a prediction file"
            )
        lines.append(f"{text_id}\t{_format_span_field(predictions.entries[text_id])}")
    write_lines(path, lines)
