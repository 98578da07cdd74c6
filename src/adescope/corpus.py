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
producer (model name, run id).

Every line-based input (corpus, prediction file, lexicon) is read by
:func:`read_located`, which makes its record from the lines as they are
parsed and locates a fault at the line read last. Ids and metadata are
checked once, where records are made, so the writers only format and
loading after writing is the identity.
"""

from __future__ import annotations

import codecs
import errno
import os
import re
import shutil
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, TypeVar, Union

from .errors import ValidationError, echo, echo_list, echo_span, located
from .text import (
    CLASS_LETTER, REPORT_CLASS_ORDER, Frozen, LabeledSample, RawText, SampleClass, Span, _NO_SPANS,
    check_id, frozen_spans,
)

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
    "read_located",
    "format_spans",
    "decode_json",
    "write_lines",
    "write_outputs",
]

CORPUS_HEADER = "id\ttext\tclass\tspans"
_JSONL_KEYS = ("id", "text", "class", "spans")

_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.?)", re.S)

# The member of each class letter, without an enum call per row, and the
# classes a compose base may hold.
_CLASS_BY_LETTER = {letter: cls for cls, letter in CLASS_LETTER.items()}
_BASE_CLASSES = (SampleClass.ADE, SampleClass.NO_ADE)

_Record = TypeVar("_Record")


class CorpusPartition(Frozen):
    """An ordered collection of labeled samples with unique ids, each checked
    as read, under a free label ``name`` that no output carries (a loaded
    file's stem). ``by_id`` maps each id to its sample.
    """

    _FIELDS = ("name", "samples")

    def __init__(self, name: str, samples: Iterable[LabeledSample]) -> None:
        by_id: dict[str, LabeledSample] = {}
        for sample in samples:
            if sample.text.id in by_id:
                raise ValidationError(f"duplicate sample id {echo(sample.text.id)}")
            by_id[sample.text.id] = sample
        self._set(name=name, samples=tuple(by_id.values()), by_id=by_id)

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
    :class:`~adescope.errors.ParseError` naming the file and line.
    """
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # its line as the text's newlines number it
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise located("not valid UTF-8", path, head.count(b"\n") + 1) from None
    return content.replace("\r\n", "\n").replace("\r", "\n")


def lexicon_lines(content: str) -> list[tuple[int, str]]:
    """Numbered, stripped lines of a lexicon file; blank and ``#`` lines are skipped."""
    lines = (line.strip() for line in content.split("\n"))
    return [(n, line) for n, line in enumerate(lines, 1) if line and line[0] != "#"]


def read_located(
    path: object, lines: Iterable[tuple[int, str]], parse: Callable, make: Callable[..., _Record]
) -> _Record:
    """``make(entries)``, where ``entries`` yields ``parse(line)`` for each
    numbered line as ``make`` reads it, skipping lines parsed to None. A
    :class:`ValidationError` from either is located at ``path`` and the line
    read last, or at ``path`` alone when no line was read."""
    lineno = None

    def entries() -> Iterator:
        nonlocal lineno
        for lineno, line in lines:
            entry = parse(line)
            if entry is not None:
                yield entry

    try:
        return make(entries())
    except ValidationError as exc:
        raise located(exc, path, lineno) from None


def decode_json(content: str, path: Union[str, Path, None] = None):
    """Parse one JSON document. A fault raises :class:`ValidationError`, or,
    given the document's ``path``, a ``ParseError`` at its line there."""
    import json  # imported where it is used, not by every launch

    lineno = None
    try:
        return json.loads(content)
    except json.JSONDecodeError as exc:
        reason, lineno = exc.msg, exc.lineno
    except ValueError:  # an integer literal longer than the interpreter converts
        reason = "integer literal too long"
    except RecursionError:
        reason = "nested too deeply"
    message = f"invalid JSON ({reason})"
    raise ValidationError(message) if path is None else located(message, path, lineno)


def write_lines(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Write lines as a UTF-8 file, joined by ``\\n`` with one trailing newline,
    so no lines write one ``\\n``.

    Each line is written as ``lines`` yields it, so a write holds one line
    and the file's buffer, not the whole file. The file is open while
    ``lines`` runs: a producer must not raise once writing starts, or the
    file is left cut short.
    """
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") as file:
        file.write(next(lines, "") + "\n")
        file.writelines(line + "\n" for line in lines)


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
    before anything is written. Writes stream their lines
    (:func:`write_lines`), so a line producer must not raise once writing
    starts: a staged sibling would be removed, but a direct target keeps
    the lines written before the fault.
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


def _unescape(match: re.Match) -> str:
    try:
        return _UNESCAPE[match[1]]
    except KeyError:
        raise ValidationError("bad escape sequence in text field") from None


def _parse_span_field(field: str) -> list[Span]:
    spans: list[Span] = []
    if not field:
        return spans
    for chunk in field.split(";"):
        start, colon, end = chunk.partition(":")
        if not colon or ":" in end:
            raise ValidationError(f"malformed span {echo(chunk)}, expected start:end")
        # int() alone would also take signs, spaces, "_" and non-ASCII digits;
        # it refuses an integer literal longer than the interpreter converts.
        try:
            if not (chunk.isascii() and start.isdigit() and end.isdigit()):
                raise ValueError(chunk)
            start, end = int(start), int(end)
        except ValueError:
            raise ValidationError(f"non-integer span offsets in {echo(chunk)}") from None
        spans.append(Span(start, end))
    return spans


def format_spans(spans: Collection[Span]) -> str:
    """Spans as sorted ``start:end`` pairs joined by ``;``, as files hold them.
    A lone span, as most rows hold, is formatted without a sort or a list."""
    if not spans:
        return ""
    if len(spans) == 1:
        (span,) = spans
        return f"{span.start}:{span.end}"
    return ";".join([f"{s.start}:{s.end}" for s in sorted(spans)])


def escape_tsv(text: str) -> str:
    """``text`` with backslash, tab, newline and carriage return escaped.

    Whole-string ``replace`` calls, backslash first so that no escape it
    writes is escaped again: ``str.translate`` with a one-to-two character
    table looks up every character in a dict, about 40 times slower on a
    long post.
    """
    if "\\" in text or "\t" in text or "\n" in text or "\r" in text:
        return (
            text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r")
        )
    return text


def _sample(sample_id: str, text: str, class_name: object, spans: list[Span]) -> LabeledSample:
    try:
        sample_class = _CLASS_BY_LETTER[class_name]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON class
        raise ValidationError(f"unknown class {echo(class_name)}") from None
    return LabeledSample(RawText(sample_id, text), spans, sample_class)


def _tsv_row(line: str) -> LabeledSample | None:
    """The sample of a TSV line; None for a blank line."""
    if not line:
        return None
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValidationError("expected 4 tab-separated fields")
    sample_id, text, class_name, spans = fields
    if "\\" in text:
        text = _ESCAPE_RE.sub(_unescape, text)
    return _sample(sample_id, text, class_name, _parse_span_field(spans))


def _jsonl_row(line: str) -> LabeledSample | None:
    """The sample of a JSON line; None for a blank line."""
    if not line.strip():
        return None
    record = decode_json(line)
    if not isinstance(record, dict):
        raise ValidationError("expected a JSON object")
    missing = set(_JSONL_KEYS) - set(record)
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)}")
    for key in ("id", "text"):
        if not isinstance(record[key], str):
            raise ValidationError(f"{key} must be a string")
        try:  # a lone surrogate escape loads, but no UTF-8 file can hold it
            record[key].encode()
        except UnicodeEncodeError:
            raise ValidationError(f"{key} holds a lone surrogate") from None
    spans = record["spans"]
    pairs = spans if isinstance(spans, list) else [spans]
    for pair in pairs:
        # type(), not isinstance(): JSON true loads as a bool, an int subclass.
        offsets_ok = isinstance(pair, list) and all(type(offset) is int for offset in pair)
        if not offsets_ok or len(pair) != 2:
            import json

            raise ValidationError(f"malformed span {echo(pair, json.dumps)}, expected [start, end]")
    spans = [Span(start, end) for start, end in pairs]
    return _sample(record["id"], record["text"], record["class"], spans)


def _tsv_lines(partition: CorpusPartition) -> Iterator[str]:
    yield CORPUS_HEADER
    for sample in partition.samples:
        content = escape_tsv(sample.text.content)
        spans = format_spans(sample.gold_spans)
        yield f"{sample.text.id}\t{content}\t{CLASS_LETTER[sample.sample_class]}\t{spans}"


def _jsonl_lines(partition: CorpusPartition) -> Iterator[str]:
    import json

    records = (
        {"id": s.text.id, "text": s.text.content, "class": CLASS_LETTER[s.sample_class],
         "spans": sorted(s.gold_spans)}
        for s in partition.samples
    )
    return (json.dumps(record, ensure_ascii=False) for record in records)


# Each corpus format by name: its header (or None), line reader and partition writer.
_FORMATS = {
    "tsv": (CORPUS_HEADER, _tsv_row, _tsv_lines),
    "jsonl": (None, _jsonl_row, _jsonl_lines),
}


def _corpus_format(format: str) -> tuple:
    try:
        return _FORMATS[format]
    except (KeyError, TypeError):  # TypeError: an unhashable format
        raise ValidationError(f"unknown corpus format {echo(format)}") from None


def load_corpus(path: Union[str, Path], format: str = "tsv") -> CorpusPartition:
    """Load a corpus file. ``format`` is ``tsv`` (native) or ``jsonl``.

    The partition is named after the file's stem. A malformed row (bad class
    letter, span out of bounds, class and span mismatch, duplicate id)
    raises :class:`~adescope.errors.ParseError` as ``file:line: message``; a
    message echoes at most 40 characters of any input value. A file with no
    samples loads as an empty partition with a logged warning.
    """
    header, read_row, _ = _corpus_format(format)
    path = Path(path)
    raw = read_text(path)
    lines = enumerate(raw.split("\n"), 1)
    if header is not None and raw and next(lines)[1] != header:  # line 1 holds the header
        raise located(f"expected header {header!r}", path, 1)
    partition = read_located(path, lines, read_row, partial(CorpusPartition, path.stem))
    if not partition.samples:  # logging is imported only to warn, not by every run
        import logging

        logging.getLogger(__name__).warning(
            "corpus file %s %s", path, "contains no samples" if raw.strip() else "is empty"
        )
    return partition


def write_corpus(
    partition: CorpusPartition, path: Union[str, Path], format: str = "tsv"
) -> None:
    """Write a partition in the chosen format; loading it back is the identity."""
    write_lines(path, _corpus_format(format)[2](partition))


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
    only its own class, and ids must not collide. A pool is given exactly
    when its add flag is set: an unused pool is refused, not dropped.
    """
    for sample in base.samples:
        if sample.sample_class not in _BASE_CLASSES:
            raise ValidationError(
                f"base sample {echo(sample.text.id)} has class "
                f"{sample.sample_class.value}; base must contain only A and X"
            )
    samples = list(base.samples)
    for flag, pool, wanted, label in (
        (add_n, n_pool, SampleClass.NEGATED, "n_pool"),
        (add_s, s_pool, SampleClass.SPECULATED, "s_pool"),
    ):
        if pool is None:
            if flag:
                raise ValidationError(f"{label} is required when its add flag is set")
            continue
        if not flag:
            raise ValidationError(f"{label} is given but its add flag is not set")
        for sample in pool.samples:
            if sample.sample_class is not wanted:
                raise ValidationError(
                    f"{label} sample {echo(sample.text.id)} has class "
                    f"{sample.sample_class.value}, expected {wanted.value}"
                )
        samples.extend(pool.samples)
    return CorpusPartition(base.name, samples)


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
    """Predicted spans per text id, plus producer metadata; compared by identity.
    ``entries`` is a mapping or ``(id, spans)`` pairs, as for ``dict()``, each
    id checked as it is read; ``.entries`` is a dict."""

    _FIELDS = ("metadata", "entries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, metadata: Mapping[str, str], entries: Mapping | Iterable[tuple[str, frozenset[Span]]]
    ) -> None:
        checked: dict[str, frozenset[Span]] = {}
        for text_id, spans in entries.items() if isinstance(entries, Mapping) else entries:
            if text_id in checked:
                raise ValidationError(f"duplicate entry for id {echo(text_id)}")
            check_id(text_id)
            checked[text_id] = spans
        # A pair must load back unchanged from its "# key: value" line.
        for key, value in metadata.items():
            if any(c in key or c in value for c in "\n\r"):
                raise ValidationError("prediction metadata must be single-line")
            if ":" in key or key != key.strip() or value != value.strip():
                raise ValidationError(
                    f"prediction metadata {echo(key)}: {echo(value)} has a ':' in its key "
                    "or whitespace at an end"
                )
        self._set(metadata=metadata, entries=checked)

    def spans_for(self, text_id: str) -> frozenset[Span]:
        """Spans predicted for a text; ids without an entry are empty."""
        return self.entries.get(text_id, _NO_SPANS)


def _prediction_row(line: str) -> tuple[str, frozenset[Span]] | None:
    """The id and spans of a prediction row; None for a blank or ``#`` line."""
    if not line.strip() or line[0] == "#":
        return None
    fields = line.split("\t")
    if len(fields) != 2:
        raise ValidationError("expected 'id<TAB>spans'")
    return fields[0], frozen_spans(_parse_span_field(fields[1]))


def load_predictions(path: Union[str, Path]) -> PredictionFile:
    """Load a prediction file; a malformed row raises as ``file:line: message``."""
    path = Path(path)
    lines = read_text(path).split("\n")
    first = next((i for i, line in enumerate(lines) if line.strip() and line[0] != "#"), len(lines))
    metadata: dict[str, str] = {}
    for line in lines[:first]:
        key, colon, value = line[1:].partition(":")
        if colon:
            metadata[key.strip()] = value.strip()
    rows = enumerate(lines[first:], first + 1)
    return read_located(path, rows, _prediction_row, partial(PredictionFile, metadata))


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
    entries = predictions.entries
    header = (f"# {key}: {value}" for key, value in predictions.metadata.items())
    rows = (f"{text_id}\t{format_spans(entries[text_id])}" for text_id in sorted(entries))
    write_lines(path, chain(header, rows))
