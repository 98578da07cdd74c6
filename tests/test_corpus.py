from __future__ import annotations

import errno
import itertools
import json
import logging

import pytest
from hypothesis import example, given, strategies as st

from adescope import (
    CORPUS_HEADER,
    CorpusPartition,
    Phenomenon,
    LabeledSample,
    ParseError,
    PredictionFile,
    RawText,
    SampleClass,
    Span,
    ValidationError,
    compose_training_set,
    distribution_report,
    load_ade_lexicon,
    load_corpus,
    load_lexicon,
    load_predictions,
    validate_predictions,
    write_corpus,
    write_predictions,
)
from adescope import corpus as corpus_module
from adescope.combine import EntitySet
from adescope.corpus import escape_tsv, write_outputs
from adescope.text import _NO_SPANS, check_id


def make(sid: str, content: str, cls: SampleClass, *gold: Span) -> LabeledSample:
    return LabeledSample(RawText(sid, content), frozenset(gold), cls)


# What every refused text id's message says after the id.
ID_RULE = "must be non-blank, hold no tab, newline or carriage return, and not start with '#' or U+FEFF"


def write_lines(path, *lines: str) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


TRICKY = make(
    "t1",
    "tab\there\nnewline \\ backslash\rreturn",
    SampleClass.ADE,
    Span(0, 3),
    Span(9, 16),
)

PARTITION = CorpusPartition(
    "custom",
    (
        make("a1", "awful headaches on day three", SampleClass.ADE, Span(6, 15)),
        TRICKY,
        make("x1", "picked up the refill", SampleClass.NO_ADE),
        make("n1", "no rash at all", SampleClass.NEGATED),
        make("s1", "maybe a rash", SampleClass.SPECULATED),
    ),
)


class TestCorpusRoundTrip:
    @pytest.mark.parametrize("format", ["tsv", "jsonl"])
    def test_write_then_load_is_identity(self, tmp_path, format):
        path = tmp_path / f"roundtrip.{format}"
        write_corpus(PARTITION, path, format=format)
        loaded = load_corpus(path, format=format)
        assert loaded.samples == PARTITION.samples

    @pytest.mark.parametrize("format", ["tsv", "jsonl"])
    def test_rewrite_is_byte_identical(self, tmp_path, format):
        first = tmp_path / f"one.{format}"
        second = tmp_path / f"two.{format}"
        write_corpus(PARTITION, first, format=format)
        write_corpus(load_corpus(first, format=format), second, format=format)
        assert first.read_bytes() == second.read_bytes()

    def test_escapes_keep_rows_single_line(self, tmp_path):
        path = tmp_path / "escaped.tsv"
        write_corpus(CorpusPartition("custom", (TRICKY,)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[1] == "tab\\there\\nnewline \\\\ backslash\\rreturn"

    def test_escape_matches_a_character_table_on_every_short_string(self, tmp_path):
        # Every string of up to five characters over the four escaped
        # characters and the letters of their escapes (37,449 strings), so
        # each order of a backslash next to a "t", "n" or "r" is written and
        # read back. Each is bracketed in its row: a blank text is no sample.
        table = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
        alphabet = "\\\t\n\rtnra"
        strings = [
            "".join(chars)
            for length in range(6)
            for chars in itertools.product(alphabet, repeat=length)
        ]
        assert len(strings) == 37_449
        for text in strings:
            assert escape_tsv(text) == "".join(table.get(char, char) for char in text)
        path = tmp_path / "escapes.tsv"
        partition = CorpusPartition(
            "escapes",
            (make(f"e{i}", f"<{text}>", SampleClass.NO_ADE) for i, text in enumerate(strings)),
        )
        write_corpus(partition, path)
        loaded = load_corpus(path)
        assert [sample.text.content[1:-1] for sample in loaded.samples] == strings

    def test_spans_serialised_sorted(self, tmp_path):
        path = tmp_path / "spans.tsv"
        write_corpus(
            CorpusPartition(
                "custom",
                (make("a1", "one two three", SampleClass.ADE, Span(8, 13), Span(0, 3)),),
            ),
            path,
        )
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row.split("\t")[3] == "0:3;8:13"

    def test_tab_in_id_rejected_for_tsv(self):
        # The sample is refused when made, so no TSV row is asked to hold it.
        with pytest.raises(ValidationError) as caught:
            make("a\tb", "some text", SampleClass.NO_ADE)
        assert str(caught.value) == f"text id 'a\\tb' {ID_RULE}"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_corpus(PARTITION, tmp_path / "x.csv", format="csv")
        (tmp_path / "x.tsv").write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_corpus(tmp_path / "x.tsv", format="csv")


class TestCorpusParsing:
    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        write_lines(path, "id\ttext\tlabel\tspans", "a1\thi there\tX\t")
        with pytest.raises(ParseError, match=r"bad\.tsv:1"):
            load_corpus(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "short.tsv"
        write_lines(path, CORPUS_HEADER, "a1\tonly three fields\tX")
        with pytest.raises(ParseError, match=r"short\.tsv:2"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        write_lines(path, CORPUS_HEADER, "a1\tfirst one\tX\t", "a1\tsecond one\tX\t")
        with pytest.raises(ParseError, match="duplicate sample id"):
            load_corpus(path)

    def test_unknown_class_names_its_line(self, tmp_path):
        path = tmp_path / "cls.tsv"
        write_lines(path, CORPUS_HEADER, "a1\thello world\tB\t")
        with pytest.raises(ParseError) as caught:
            load_corpus(path)
        assert str(caught.value) == f"{path}:2: unknown class 'B'"

    def test_bad_escape_rejected(self, tmp_path):
        path = tmp_path / "esc.tsv"
        for text in ("bad \\q escape", "trailing \\"):
            write_lines(path, CORPUS_HEADER, f"a1\t{text}\tX\t")
            with pytest.raises(ParseError, match="bad escape sequence in text field"):
                load_corpus(path)

    @pytest.mark.parametrize(
        "field",
        ["3-4", "a:b", "5:5", "3:2", "1:4;", "0:1_2", " 0:12", "+0:12", "0:\u0661\u0662"],
    )
    def test_malformed_span_field(self, tmp_path, field):
        path = tmp_path / "span.tsv"
        write_lines(path, CORPUS_HEADER, f"a1\tlong enough text\tA\t{field}")
        with pytest.raises(ParseError, match=r"span\.tsv:2: "):
            load_corpus(path)

    def test_class_span_consistency_enforced(self, tmp_path):
        path = tmp_path / "mix.tsv"
        write_lines(path, CORPUS_HEADER, "x1\tquiet day today\tX\t0:5")
        with pytest.raises(ParseError, match="must not carry gold spans"):
            load_corpus(path)
        write_lines(path, CORPUS_HEADER, "a1\tquiet day today\tA\t")
        with pytest.raises(ParseError, match="at least one gold span"):
            load_corpus(path)

    def test_out_of_bounds_span_rejected(self, tmp_path):
        path = tmp_path / "oob.tsv"
        write_lines(path, CORPUS_HEADER, "a1\tshort\tA\t0:50")
        with pytest.raises(ParseError, match="exceeds text length"):
            load_corpus(path)

    def test_empty_file_loads_empty_with_warning(self, tmp_path, caplog):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="adescope.corpus"):
            partition = load_corpus(path)
        assert len(partition) == 0
        assert any("empty" in record.message for record in caplog.records)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.tsv"
        write_lines(path, CORPUS_HEADER, "", "x1\tstill fine\tX\t", "")
        assert [s.text.id for s in load_corpus(path).samples] == ["x1"]

    def test_jsonl_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.jsonl:1"):
            load_corpus(path, format="jsonl")
        path.write_text('{"id": "a1", "text": "hi there"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="missing keys"):
            load_corpus(path, format="jsonl")
        row = '{"id": "a1", "text": "hi there", "class": "X", "spans": []}'
        path.write_text(row + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate sample id"):
            load_corpus(path, format="jsonl")

    @pytest.mark.parametrize(
        "row,key",
        [
            ('{"id": 7, "text": "hi there", "class": "X", "spans": []}', "id"),
            ('{"id": ["a1"], "text": "hi there", "class": "X", "spans": []}', "id"),
            ('{"id": "a1", "text": 5, "class": "X", "spans": []}', "text"),
        ],
    )
    def test_jsonl_non_string_fields_rejected(self, tmp_path, row, key):
        path = tmp_path / "types.jsonl"
        write_lines(path, '{"id": "x0", "text": "fine", "class": "X", "spans": []}', row)
        with pytest.raises(ParseError, match=rf"types\.jsonl:2: {key} must be a string"):
            load_corpus(path, format="jsonl")

    @pytest.mark.parametrize(
        "spans,shown",
        [
            ("7", "7"),
            ("null", "null"),
            ('"0:3"', '"0:3"'),
            ("[[0]]", "[0]"),
            ("[[0, 3, 5]]", "[0, 3, 5]"),
            ("[[0.9, 3]]", "[0.9, 3]"),
            ('[["0", "3"]]', '["0", "3"]'),
            ("[[true, 3]]", "[true, 3]"),
        ],
    )
    def test_jsonl_spans_must_be_integer_pairs(self, tmp_path, spans, shown):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            f'{{"id": "a1", "text": "some text", "class": "A", "spans": {spans}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as caught:
            load_corpus(path, format="jsonl")
        assert str(caught.value) == (
            f"{path}:1: malformed span {shown}, expected [start, end]"
        )


# One faulty (id, text, class, spans) row per fault, with the message both
# corpus formats must give for it at the row's file:line.
ROW_FAULTS = {
    "empty-id": (("", "hello world", "X", []), "{where}: text id '' " + ID_RULE),
    "blank-id": (("  ", "hello world", "X", []), "{where}: text id '  ' " + ID_RULE),
    "hash-id": (("#1", "hello world", "X", []), "{where}: text id '#1' " + ID_RULE),
    "bom-id": (
        ("\ufeffa1", "hello world", "X", []),
        "{where}: text id '\\ufeffa1' " + ID_RULE,
    ),
    "duplicate-id": (("x0", "second one", "X", []), "{where}: duplicate sample id 'x0'"),
    "unknown-class": (
        ("a1", "hello world", "B", []),
        "{where}: unknown class 'B'",
    ),
    "class-span-mismatch": (
        ("x1", "quiet day today", "X", [(0, 5)]),
        "{where}: sample 'x1': class X must not carry gold spans",
    ),
    "span-past-end": (
        ("a1", "short", "A", [(0, 50)]),
        "{where}: sample 'a1': span [0, 50) exceeds text length 5",
    ),
    "overlapping-spans": (
        ("a1", "short text here", "A", [(0, 5), (3, 8)]),
        "{where}: sample 'a1': gold spans [0, 5) and [3, 8) overlap",
    ),
}


def write_rows(path, format: str, *rows) -> None:
    if format == "tsv":
        lines = [CORPUS_HEADER] + [
            "\t".join((sid, text, cls, ";".join(f"{s}:{e}" for s, e in spans)))
            for sid, text, cls, spans in rows
        ]
    else:
        lines = [
            json.dumps({"id": sid, "text": text, "class": cls, "spans": spans})
            for sid, text, cls, spans in rows
        ]
    write_lines(path, *lines)


class TestRowFaults:
    @pytest.mark.parametrize("format", ["tsv", "jsonl"])
    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_both_formats_report_a_fault_alike(self, tmp_path, fault, format):
        row, message = ROW_FAULTS[fault]
        path = tmp_path / f"rows.{format}"
        write_rows(path, format, ("x0", "all fine", "X", []), row)
        line = 3 if format == "tsv" else 2
        with pytest.raises(ParseError) as caught:
            load_corpus(path, format=format)
        assert str(caught.value) == message.format(where=f"{path}:{line}")



def tsv_fault(row: str) -> list[str]:
    """A corpus whose faulty ``row`` is line 3."""
    return [CORPUS_HEADER, "x0\tall fine\tX\t", row]


def jsonl_fault(**fields) -> list[str]:
    """A JSON-lines corpus whose line 2 is a row with ``fields`` changed."""
    row = {"id": "a1", "text": "hello world", "class": "X", "spans": [], **fields}
    return ['{"id": "x0", "text": "all fine", "class": "X", "spans": []}', json.dumps(row)]


def predictions_fault(row: str) -> list[str]:
    """A prediction file whose faulty ``row`` is line 3."""
    return ["# model: m", "x0\t0:2", row]


LOADERS = {
    "tsv": load_corpus,
    "jsonl": lambda path: load_corpus(path, format="jsonl"),
    "predictions": load_predictions,
}

# A long echoed value is cut after 40 characters and marked "…".
LONG_ID = "i" * 5000
LONG_ID_ECHO = f"'{'i' * 40}…'"
LONG_SPANS = "1:" * 3000
LONG_OFFSET = "9" * 4000
LONG_OFFSET_ECHO = f"{'9' * 40}…"

# The full message of every row fault, for each file kind that can hold it;
# "{path}" stands for the file.
ROW_MESSAGES = [
    pytest.param(
        "tsv",
        ["id\ttext\tlabel\tspans", "a1\thello world\tX\t"],
        "{path}:1: expected header 'id\\ttext\\tclass\\tspans'",
        id="tsv-header",
    ),
    pytest.param(
        "tsv",
        tsv_fault("\thello world\tX\t"),
        "{path}:3: text id '' " + ID_RULE,
        id="tsv-empty-id",
    ),
    pytest.param(
        "tsv", tsv_fault("x0\tsecond one\tX\t"), "{path}:3: duplicate sample id 'x0'", id="tsv-duplicate-id"
    ),
    # A duplicate id is found where the partition is made, after the row's own checks.
    pytest.param(
        "tsv", tsv_fault("x0\tsecond one\tQ\t"), "{path}:3: unknown class 'Q'", id="tsv-duplicate-id-unknown-class"
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\tB\t"), "{path}:3: unknown class 'B'", id="tsv-unknown-class"
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\ta\t"), "{path}:3: unknown class 'a'", id="tsv-lowercase-class"
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\t\t"), "{path}:3: unknown class ''", id="tsv-empty-class"
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\tbad \\x escape\tX\t"),
        "{path}:3: bad escape sequence in text field",
        id="tsv-bad-escape",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\ttrailing \\\tX\t"),
        "{path}:3: bad escape sequence in text field",
        id="tsv-trailing-backslash",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\tx:5"),
        "{path}:3: non-integer span offsets in 'x:5'",
        id="tsv-non-integer-offset",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t+0:5"),
        "{path}:3: non-integer span offsets in '+0:5'",
        id="tsv-signed-offset",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t 0:5"),
        "{path}:3: non-integer span offsets in ' 0:5'",
        id="tsv-spaced-offset",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0:1_2"),
        "{path}:3: non-integer span offsets in '0:1_2'",
        id="tsv-underscore-offset",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0:\u0665"),
        "{path}:3: non-integer span offsets in '0:\u0665'",
        id="tsv-non-ascii-digit-offset",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0-5"),
        "{path}:3: malformed span '0-5', expected start:end",
        id="tsv-malformed-span",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0:5;"),
        "{path}:3: malformed span '', expected start:end",
        id="tsv-trailing-semicolon",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"a1\thello world\tA\t{LONG_SPANS}"),
        f"{{path}}:3: malformed span '{'1:' * 20}…', expected start:end",
        id="tsv-long-malformed-span",
    ),
    pytest.param(
        "tsv",
        [CORPUS_HEADER, f"{LONG_ID}\tall fine\tX\t", f"{LONG_ID}\tsecond one\tX\t"],
        f"{{path}}:3: duplicate sample id '{'i' * 40}…'",
        id="tsv-long-duplicate-id",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"{LONG_ID}\thello world\tB\t"),
        f"{{path}}:3: unknown class 'B'",
        id="tsv-long-id-unknown-class",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"{LONG_ID}\thello world\tA\t0:50"),
        f"{{path}}:3: sample {LONG_ID_ECHO}: span [0, 50) exceeds text length 11",
        id="tsv-long-id-span-past-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"{'i' * 40}\thello world\tA\t0:50"),
        f"{{path}}:3: sample '{'i' * 40}': span [0, 50) exceeds text length 11",
        id="tsv-40-character-id-span-past-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"a1\thello world\tA\t0:{LONG_OFFSET}"),
        f"{{path}}:3: sample 'a1': span [0, {LONG_OFFSET_ECHO}) exceeds text length 11",
        id="tsv-long-offset-span-past-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"{LONG_ID}\t   \tX\t"),
        f"{{path}}:3: text {LONG_ID_ECHO} has empty content",
        id="tsv-long-id-blank-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"a1\thello world\t{'B' * 41}\t"),
        f"{{path}}:3: unknown class '{'B' * 40}…'",
        id="tsv-long-unknown-class",
    ),
    pytest.param(
        "tsv",
        tsv_fault(f"a1\thello world\t{'B' * 40}\t"),
        f"{{path}}:3: unknown class '{'B' * 40}'",
        id="tsv-40-character-class",
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\tA\t5:5"), "{path}:3: invalid span [5, 5)", id="tsv-empty-span"
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\tA\t3:2"), "{path}:3: invalid span [3, 2)", id="tsv-reversed-span"
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0:50"),
        "{path}:3: sample 'a1': span [0, 50) exceeds text length 11",
        id="tsv-span-past-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\the\\tlo world\tA\t0:12"),
        "{path}:3: sample 'a1': span [0, 12) exceeds text length 11",
        id="tsv-span-past-unescaped-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t0:5;3:8"),
        "{path}:3: sample 'a1': gold spans [0, 5) and [3, 8) overlap",
        id="tsv-overlapping-gold",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello world\tA\t"),
        "{path}:3: sample 'a1': class A requires at least one gold span",
        id="tsv-class-a-without-spans",
    ),
    pytest.param(
        "tsv",
        tsv_fault("x1\thello world\tX\t0:5"),
        "{path}:3: sample 'x1': class X must not carry gold spans",
        id="tsv-class-x-with-spans",
    ),
    pytest.param(
        "tsv", tsv_fault("a1\t   \tX\t"), "{path}:3: text 'a1' has empty content", id="tsv-blank-text"
    ),
    pytest.param(
        "tsv", tsv_fault("a1\t\tX\t"), "{path}:3: text 'a1' has empty content", id="tsv-empty-text"
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\t\\t \\n\tX\t"),
        "{path}:3: text 'a1' has empty content",
        id="tsv-escaped-blank-text",
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\t\u00a0\u3000\x1f\tX\t"),
        "{path}:3: text 'a1' has empty content",
        id="tsv-unicode-blank-text",
    ),
    pytest.param(
        "tsv", tsv_fault("a1\thello world\tX"), "{path}:3: expected 4 tab-separated fields", id="tsv-three-fields"
    ),
    pytest.param(
        "tsv",
        tsv_fault("a1\thello\tworld\tX\t"),
        "{path}:3: expected 4 tab-separated fields",
        id="tsv-five-fields",
    ),
    pytest.param("jsonl", jsonl_fault(id=""), "{path}:2: text id '' " + ID_RULE, id="jsonl-empty-id"),
    pytest.param(
        "jsonl",
        jsonl_fault(id="a\tb"),
        "{path}:2: text id 'a\\tb' " + ID_RULE,
        id="jsonl-tab-id",
    ),
    pytest.param(
        "jsonl", jsonl_fault(id="a\ud800"), "{path}:2: id holds a lone surrogate", id="jsonl-surrogate-id"
    ),
    pytest.param(
        "jsonl", jsonl_fault(text="\udc00 hi"), "{path}:2: text holds a lone surrogate", id="jsonl-surrogate-text"
    ),
    pytest.param("jsonl", jsonl_fault(id="x0"), "{path}:2: duplicate sample id 'x0'", id="jsonl-duplicate-id"),
    pytest.param("jsonl", jsonl_fault(id=7), "{path}:2: id must be a string", id="jsonl-non-string-id"),
    pytest.param("jsonl", jsonl_fault(text=None), "{path}:2: text must be a string", id="jsonl-non-string-text"),
    pytest.param(
        "jsonl", jsonl_fault(**{"class": "B"}), "{path}:2: unknown class 'B'", id="jsonl-unknown-class"
    ),
    pytest.param(
        "jsonl", jsonl_fault(**{"class": 1}), "{path}:2: unknown class 1", id="jsonl-number-class"
    ),
    pytest.param(
        "jsonl", jsonl_fault(**{"class": None}), "{path}:2: unknown class None", id="jsonl-null-class"
    ),
    pytest.param(
        "jsonl", jsonl_fault(**{"class": ["A"]}), "{path}:2: unknown class ['A']", id="jsonl-list-class"
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": {"A": 1}}),
        "{path}:2: unknown class {'A': 1}",
        id="jsonl-object-class",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[0]]}),
        "{path}:2: malformed span [0], expected [start, end]",
        id="jsonl-malformed-span",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[0] * 3000]}),
        f"{{path}}:2: malformed span {json.dumps([0] * 3000)[:40]}…, expected [start, end]",
        id="jsonl-long-malformed-span",
    ),
    pytest.param(
        "jsonl",
        [json.dumps({"id": LONG_ID, "text": "x", "class": "X", "spans": []})] * 2,
        f"{{path}}:2: duplicate sample id '{'i' * 40}…'",
        id="jsonl-long-duplicate-id",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(id=LONG_ID, **{"class": "A", "spans": [[0, 5], [3, 8]]}),
        f"{{path}}:2: sample {LONG_ID_ECHO}: gold spans [0, 5) and [3, 8) overlap",
        id="jsonl-long-id-overlapping-gold",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(id=LONG_ID, **{"class": "A"}),
        f"{{path}}:2: sample {LONG_ID_ECHO}: class A requires at least one gold span",
        id="jsonl-long-id-class-a-without-spans",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(id=LONG_ID, spans=[[0, 5]]),
        f"{{path}}:2: sample {LONG_ID_ECHO}: class X must not carry gold spans",
        id="jsonl-long-id-class-x-with-spans",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": [1] * 5000}),
        f"{{path}}:2: unknown class {repr([1] * 5000)[:40]}…",
        id="jsonl-long-list-class",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "B" * 5000}),
        f"{{path}}:2: unknown class '{'B' * 40}…'",
        id="jsonl-long-unknown-class",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[5, 5]]}),
        "{path}:2: invalid span [5, 5)",
        id="jsonl-empty-span",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[-1, 3]]}),
        "{path}:2: invalid span [-1, 3)",
        id="jsonl-negative-span",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[0, 50]]}),
        "{path}:2: sample 'a1': span [0, 50) exceeds text length 11",
        id="jsonl-span-past-text",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A", "spans": [[0, 5], [3, 8]]}),
        "{path}:2: sample 'a1': gold spans [0, 5) and [3, 8) overlap",
        id="jsonl-overlapping-gold",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(**{"class": "A"}),
        "{path}:2: sample 'a1': class A requires at least one gold span",
        id="jsonl-class-a-without-spans",
    ),
    pytest.param(
        "jsonl",
        jsonl_fault(spans=[[0, 5]]),
        "{path}:2: sample 'a1': class X must not carry gold spans",
        id="jsonl-class-x-with-spans",
    ),
    pytest.param(
        "jsonl", jsonl_fault(text=" \t\n "), "{path}:2: text 'a1' has empty content", id="jsonl-blank-text"
    ),
    pytest.param(
        "jsonl",
        ['{"id": "a1", "text": "hi there"}'],
        "{path}:1: missing keys ['class', 'spans']",
        id="jsonl-missing-keys",
    ),
    pytest.param("jsonl", ["[1, 2]"], "{path}:1: expected a JSON object", id="jsonl-not-an-object"),
    pytest.param(
        "predictions", predictions_fault("no tab here"), "{path}:3: expected 'id<TAB>spans'", id="pred-one-field"
    ),
    pytest.param(
        "predictions", predictions_fault("a1\t0:2\t"), "{path}:3: expected 'id<TAB>spans'", id="pred-three-fields"
    ),
    pytest.param(
        "predictions", predictions_fault("\t0:2"), "{path}:3: text id '' " + ID_RULE, id="pred-empty-id"
    ),
    pytest.param(
        "predictions", predictions_fault("  \t0:2"), "{path}:3: text id '  ' " + ID_RULE, id="pred-blank-id"
    ),
    pytest.param(
        "predictions",
        predictions_fault("\ufeffa1\t0:2"),
        "{path}:3: text id '\\ufeffa1' " + ID_RULE,
        id="pred-bom-id",
    ),
    pytest.param(
        "predictions", predictions_fault("x0\t"), "{path}:3: duplicate entry for id 'x0'", id="pred-duplicate-id"
    ),
    pytest.param(
        "predictions",
        predictions_fault("x0\t0:2:4"),
        "{path}:3: malformed span '0:2:4', expected start:end",
        id="pred-duplicate-id-malformed-span",
    ),
    pytest.param(
        "predictions",
        predictions_fault("a1\tx:5"),
        "{path}:3: non-integer span offsets in 'x:5'",
        id="pred-non-integer-offset",
    ),
    pytest.param(
        "predictions",
        predictions_fault("a1\t0:-5"),
        "{path}:3: non-integer span offsets in '0:-5'",
        id="pred-signed-offset",
    ),
    pytest.param(
        "predictions",
        predictions_fault("a1\t0:1_2"),
        "{path}:3: non-integer span offsets in '0:1_2'",
        id="pred-underscore-offset",
    ),
    pytest.param(
        "predictions",
        predictions_fault("a1\t\u0660:5"),
        "{path}:3: non-integer span offsets in '\u0660:5'",
        id="pred-non-ascii-digit-offset",
    ),
    pytest.param(
        "predictions",
        predictions_fault("a1\t0:2:4"),
        "{path}:3: malformed span '0:2:4', expected start:end",
        id="pred-malformed-span",
    ),
    pytest.param(
        "predictions",
        predictions_fault(f"a1\t{LONG_SPANS}"),
        f"{{path}}:3: malformed span '{'1:' * 20}…', expected start:end",
        id="pred-long-malformed-span",
    ),
    pytest.param(
        "predictions",
        ["# model: m", f"{LONG_ID}\t0:2", f"{LONG_ID}\t"],
        f"{{path}}:3: duplicate entry for id '{'i' * 40}…'",
        id="pred-long-duplicate-id",
    ),
    pytest.param("predictions", predictions_fault("a1\t5:5"), "{path}:3: invalid span [5, 5)", id="pred-empty-span"),
    pytest.param(
        "predictions", predictions_fault("a1\t0:2;9:3"), "{path}:3: invalid span [9, 3)", id="pred-reversed-span"
    ),
    pytest.param(
        "predictions",
        predictions_fault(f"a1\t{LONG_OFFSET}:5"),
        f"{{path}}:3: invalid span [{LONG_OFFSET_ECHO}, 5)",
        id="pred-long-offset-reversed-span",
    ),
]


class TestRowMessages:
    @pytest.mark.parametrize("kind,lines,message", ROW_MESSAGES)
    def test_each_fault_has_its_exact_message(self, tmp_path, kind, lines, message):
        path = tmp_path / f"rows.{kind}"
        write_lines(path, *lines)
        with pytest.raises(ParseError) as caught:
            LOADERS[kind](path)
        assert str(caught.value) == message.replace("{path}", str(path))

    @pytest.mark.parametrize("kind", ["tsv", "predictions"])
    def test_a_long_offset_is_echoed_cut(self, tmp_path, kind):
        chunk = "0:" + "9" * 5000
        path = tmp_path / f"long.{kind}"
        if kind == "tsv":
            write_lines(path, *tsv_fault(f"a1\thello world\tA\t{chunk}"))
            where = f"{path}:3"
        else:
            write_lines(path, *predictions_fault(f"a1\t{chunk}"))
            where = f"{path}:3"
        with pytest.raises(ParseError) as caught:
            LOADERS[kind](path)
        assert str(caught.value) == f"{where}: non-integer span offsets in '0:{'9' * 38}…'"

# One valid file per input kind, with the loader that reads it.
INPUT_FILES = {
    "corpus": (f"{CORPUS_HEADER}\nx1\tall quiet\tX\t\n", load_corpus),
    "predictions": ("# model: m\nx1\t0:3\n", load_predictions),
    "ade_lexicon": ("# terms\npain\n", load_ade_lexicon),
    "cue_lexicon": (
        "# cues\nno|pre_trigger\n",
        lambda path: load_lexicon(path, Phenomenon.NEGATION),
    ),
}


class TestInputDecoding:
    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_byte_order_mark_is_tolerated(self, tmp_path, kind):
        content, load = INPUT_FILES[kind]
        # One file name in two directories: a corpus is named after its stem.
        (tmp_path / "marked").mkdir()
        plain, marked = tmp_path / "input.txt", tmp_path / "marked" / "input.txt"
        plain.write_bytes(content.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        assert repr(load(marked)) == repr(load(plain))

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    def test_undecodable_bytes_name_file_and_line(self, tmp_path, kind):
        content, load = INPUT_FILES[kind]
        path = tmp_path / "latin1.txt"
        path.write_bytes(content.encode("utf-8") + "caf\xe9\n".encode("latin-1"))
        line = content.count("\n") + 1
        with pytest.raises(ParseError, match=rf"latin1\.txt:{line}: not valid UTF-8"):
            load(path)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_undecodable_bytes_are_located_on_lines_as_read(self, tmp_path, newline):
        """Reading ends a line at \\r, \\r\\n or \\n; the UTF-8 fault's line counts alike."""
        path = tmp_path / "cues.txt"
        lines = ["# cues", "no|pre_trigger", "caf\xe9|pre_trigger"]
        path.write_bytes(newline.join(lines).encode("latin-1") + newline.encode())
        with pytest.raises(ParseError) as caught:
            load_lexicon(path, Phenomenon.NEGATION)
        assert str(caught.value) == f"{path}:3: not valid UTF-8"


class TestPartitionAndComposition:
    def test_partition_rejects_duplicate_ids(self):
        sample = make("a1", "twice over", SampleClass.NO_ADE)
        with pytest.raises(ValidationError):
            CorpusPartition("custom", (sample, sample))

    def test_partition_echoes_a_long_duplicate_id_cut(self):
        sample = make(LONG_ID, "twice over", SampleClass.NO_ADE)
        with pytest.raises(ValidationError) as caught:
            CorpusPartition("custom", (sample, sample))
        assert str(caught.value) == f"duplicate sample id '{'i' * 40}…'"

    def test_by_id_lookup(self):
        assert PARTITION.by_id["n1"].sample_class is SampleClass.NEGATED

    def test_a_partition_reads_its_samples_once_in_order(self):
        partition = CorpusPartition("custom", iter(PARTITION.samples))
        assert partition.samples == PARTITION.samples
        assert list(partition.by_id) == [sample.text.id for sample in PARTITION.samples]

    def make_pools(self):
        base = CorpusPartition(
            "train",
            (
                make("a1", "bad headaches again", SampleClass.ADE, Span(4, 13)),
                make("x1", "nothing to report", SampleClass.NO_ADE),
            ),
        )
        n_pool = CorpusPartition("custom", (make("n1", "no rash here", SampleClass.NEGATED),))
        s_pool = CorpusPartition("custom", (make("s1", "maybe a rash", SampleClass.SPECULATED),))
        return base, n_pool, s_pool

    def test_compose_orders_base_then_n_then_s(self):
        base, n_pool, s_pool = self.make_pools()
        out = compose_training_set(base, add_n=True, add_s=True, n_pool=n_pool, s_pool=s_pool)
        assert [s.text.id for s in out.samples] == ["a1", "x1", "n1", "s1"]
        assert out.name == "train"

    def test_compose_flags_select_pools(self):
        base, n_pool, s_pool = self.make_pools()
        only_n = compose_training_set(base, add_n=True, n_pool=n_pool)
        assert [s.text.id for s in only_n.samples] == ["a1", "x1", "n1"]
        assert compose_training_set(base).samples == base.samples

    def test_compose_refuses_a_pool_without_its_add_flag(self):
        # A pool whose flag is not set would be read and then dropped.
        base, n_pool, s_pool = self.make_pools()
        with pytest.raises(ValidationError, match="s_pool is given but its add flag is not set"):
            compose_training_set(base, add_n=True, n_pool=n_pool, s_pool=s_pool)
        with pytest.raises(ValidationError, match="n_pool is given but its add flag is not set"):
            compose_training_set(base, n_pool=n_pool, s_pool=s_pool)

    def test_compose_validates_base_classes(self):
        _, n_pool, s_pool = self.make_pools()
        bad_base = CorpusPartition("train", (make("n9", "no rash", SampleClass.NEGATED),))
        with pytest.raises(ValidationError, match="only A and X"):
            compose_training_set(bad_base, add_n=True, n_pool=n_pool)

    def test_compose_validates_pool_classes(self):
        base, n_pool, s_pool = self.make_pools()
        with pytest.raises(ValidationError, match="expected N"):
            compose_training_set(base, add_n=True, n_pool=s_pool)

    def test_compose_requires_selected_pool(self):
        base, _, _ = self.make_pools()
        with pytest.raises(ValidationError, match="s_pool"):
            compose_training_set(base, add_s=True)

    def test_compose_echoes_long_ids_cut(self):
        base, _, _ = self.make_pools()
        long_n = CorpusPartition("custom", (make(LONG_ID, "no rash", SampleClass.NEGATED),))
        long_s = CorpusPartition("custom", (make(LONG_ID, "maybe a rash", SampleClass.SPECULATED),))
        for compose, message in (
            (
                lambda: compose_training_set(long_n),
                f"base sample {LONG_ID_ECHO} has class N; base must contain only A and X",
            ),
            (
                lambda: compose_training_set(base, add_n=True, n_pool=long_s),
                f"n_pool sample {LONG_ID_ECHO} has class S, expected N",
            ),
        ):
            with pytest.raises(ValidationError) as caught:
                compose()
            assert str(caught.value) == message

    def test_compose_echoes_a_long_colliding_id_cut(self):
        base = CorpusPartition("custom", (make(LONG_ID, "all quiet", SampleClass.NO_ADE),))
        clash = CorpusPartition("custom", (make(LONG_ID, "no rash", SampleClass.NEGATED),))
        with pytest.raises(ValidationError) as caught:
            compose_training_set(base, add_n=True, n_pool=clash)
        assert str(caught.value) == f"duplicate sample id {LONG_ID_ECHO}"

    def test_compose_rejects_id_collisions(self):
        base, n_pool, _ = self.make_pools()
        clash = CorpusPartition("custom", (make("a1", "no rash", SampleClass.NEGATED),))
        with pytest.raises(ValidationError, match="duplicate sample id 'a1'"):
            compose_training_set(base, add_n=True, n_pool=clash)

    def test_distribution_report(self):
        report = distribution_report(PARTITION)
        assert report.total == 5
        assert report.counts[SampleClass.ADE] == 2
        assert report.percentages[SampleClass.ADE] == 40.0
        assert report.percentages[SampleClass.NEGATED] == 20.0
        payload = report.to_dict()
        assert list(payload["counts"]) == ["S", "N", "A", "X"]
        assert payload["percentages"]["S"] == 20.0

    def test_distribution_of_empty_partition(self):
        report = distribution_report(CorpusPartition("custom", ()))
        assert report.total == 0
        assert all(value == 0.0 for value in report.percentages.values())


class TestWriteOutputs:
    def test_a_failed_write_changes_no_target(self, tmp_path):
        first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
        second.write_text("old\n", encoding="utf-8")
        second.chmod(0o640)

        def full_disk(path):
            path.write_text("part", encoding="utf-8")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        with pytest.raises(OSError) as info:
            write_outputs([(first, lambda p: write_lines(p, "new")), (second, full_disk)])
        assert info.value.filename == str(second)
        assert list(tmp_path.iterdir()) == [second]
        assert second.read_text(encoding="utf-8") == "old\n"

        write_outputs([
            (first, lambda p: write_lines(p, "a")),
            (second, lambda p: write_lines(p, "b")),
        ])
        assert sorted(tmp_path.iterdir()) == [first, second]
        assert [p.read_text(encoding="utf-8") for p in (first, second)] == ["a\n", "b\n"]
        assert second.stat().st_mode & 0o777 == 0o640

    def test_symlinked_target_waits_for_the_staged_writes(self, tmp_path):
        real, link, fresh = tmp_path / "real.tsv", tmp_path / "link.tsv", tmp_path / "c.tsv"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)

        def full_disk(path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        with pytest.raises(OSError):
            write_outputs([(link, lambda p: write_lines(p, "new")), (fresh, full_disk)])
        with pytest.raises(IsADirectoryError):
            write_outputs([(link, lambda p: write_lines(p, "new")), (tmp_path, full_disk)])
        assert sorted(tmp_path.iterdir()) == [link, real]
        assert real.read_text(encoding="utf-8") == "old\n"

        write_outputs([(link, lambda p: write_lines(p, "new"))])
        assert link.is_symlink() and real.read_text(encoding="utf-8") == "new\n"


UNLOADABLE = "has a ':' in its key or whitespace at an end"


class TestPredictionFiles:
    def test_load_parses_metadata_and_rows(self, tmp_path):
        path = tmp_path / "preds.tsv"
        write_lines(
            path,
            "# model: demo-run",
            "# run: 7",
            "a1\t0:4;6:9",
            "x1\t",
            "# a later comment, not metadata",
            "z1\t2:5",
        )
        predictions = load_predictions(path)
        assert predictions.metadata == {"model": "demo-run", "run": "7"}
        assert predictions.entries["a1"] == frozenset({Span(0, 4), Span(6, 9)})
        assert predictions.entries["x1"] == frozenset()
        assert set(predictions.entries) == {"a1", "x1", "z1"}

    def test_rows_without_spans_share_one_empty_set(self, tmp_path):
        path = tmp_path / "preds.tsv"
        write_lines(path, "# model: m", "x1\t", "a1\t0:2", "x2\t")
        entries = load_predictions(path).entries
        assert entries["x1"] == frozenset() and entries["x1"] is entries["x2"]

    def test_spans_for_defaults_empty(self):
        predictions = PredictionFile({}, {"a1": frozenset({Span(0, 2)})})
        assert predictions.spans_for("a1") == frozenset({Span(0, 2)})
        assert predictions.spans_for("missing") == frozenset()
        # Every span-less record shares the one empty set.
        assert predictions.spans_for("missing") is predictions.spans_for("other") is _NO_SPANS

    def test_write_sorts_ids_and_round_trips(self, tmp_path):
        predictions = PredictionFile(
            {"model": "demo"},
            {"b2": frozenset({Span(3, 6)}), "a1": frozenset({Span(9, 12), Span(0, 4)})},
        )
        path = tmp_path / "preds.tsv"
        write_predictions(predictions, path)
        assert path.read_text(encoding="utf-8") == (
            "# model: demo\na1\t0:4;9:12\nb2\t3:6\n"
        )
        loaded = load_predictions(path)
        assert loaded.metadata == predictions.metadata
        assert loaded.entries == dict(predictions.entries)
        again = tmp_path / "again.tsv"
        write_predictions(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loading_checks_each_id_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            corpus_module, "check_id", lambda text_id: calls.append(text_id) or check_id(text_id)
        )
        path = tmp_path / "preds.tsv"
        write_lines(path, "# model: m", "a1\t0:2", "b2\t", "c3\t1:4;6:8")
        assert set(load_predictions(path).entries) == {"a1", "b2", "c3"}
        assert calls == ["a1", "b2", "c3"]

    @pytest.mark.parametrize(
        "pairs",
        [
            lambda entries: list(entries.items()),
            lambda entries: (item for item in entries.items()),
            lambda entries: [EntitySet(text_id, spans) for text_id, spans in entries.items()],
        ],
        ids=["list", "generator", "entity-sets"],
    )
    def test_pairs_and_a_mapping_give_the_same_file(self, pairs):
        entries = {"b2": frozenset({Span(3, 6)}), "a1": frozenset(), "c3": frozenset({Span(0, 1)})}
        from_pairs = PredictionFile({"model": "m"}, pairs(entries))
        from_mapping = PredictionFile({"model": "m"}, entries)
        assert from_pairs.metadata == from_mapping.metadata
        assert from_pairs.entries == from_mapping.entries == entries
        assert list(from_pairs.entries) == list(from_mapping.entries) == ["b2", "a1", "c3"]
        assert type(from_pairs.entries) is dict

    @pytest.mark.parametrize(
        "pairs",
        [
            [("x0", frozenset()), ("x0", frozenset({Span(0, 2)}))],
            [EntitySet("x0", ()), EntitySet("a1", ()), EntitySet("x0", ())],
        ],
        ids=["tuples", "entity-sets"],
    )
    def test_duplicate_pairs_rejected(self, pairs):
        with pytest.raises(ValidationError) as caught:
            PredictionFile({}, pairs)
        assert str(caught.value) == "duplicate entry for id 'x0'"

    def test_duplicate_prediction_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        write_lines(path, "a1\t0:2", "a1\t")
        with pytest.raises(ParseError, match=r"dup\.tsv:2"):
            load_predictions(path)

    def test_malformed_rows_name_their_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        write_lines(path, "a1\t0:2", "no tab here")
        with pytest.raises(ParseError, match=r"bad\.tsv:2"):
            load_predictions(path)
        write_lines(path, "a1\t0:2:4")
        with pytest.raises(ParseError, match="malformed span"):
            load_predictions(path)
        write_lines(path, "a1\t0:1_2")
        with pytest.raises(ParseError, match=r"bad\.tsv:1: non-integer span offsets in '0:1_2'"):
            load_predictions(path)

    def test_unserialisable_ids_rejected(self):
        for bad in ("has\ttab", "#leading", "has\rcr", "has\nlf", "", " ", "\ufeffbom"):
            with pytest.raises(ValidationError) as caught:
                PredictionFile({}, {"fine": frozenset(), bad: frozenset()})
            assert str(caught.value) == f"text id {bad!r} {ID_RULE}"

    def test_multiline_metadata_rejected(self):
        with pytest.raises(ValidationError):
            PredictionFile({"model": "two\nlines"}, {})

    @pytest.mark.parametrize(
        "metadata, message",
        [
            ({"model": "a\rb"}, "prediction metadata must be single-line"),
            ({"a\rb": "m"}, "prediction metadata must be single-line"),
            ({"a:b": "c"}, f"prediction metadata 'a:b': 'c' {UNLOADABLE}"),
            ({"m": " x "}, f"prediction metadata 'm': ' x ' {UNLOADABLE}"),
            ({"m ": "x"}, f"prediction metadata 'm ': 'x' {UNLOADABLE}"),
        ],
        ids=["cr-value", "cr-key", "colon-key", "spaced-value", "spaced-key"],
    )
    def test_metadata_that_would_not_load_back_is_rejected(self, metadata, message):
        with pytest.raises(ValidationError) as caught:
            PredictionFile(metadata, {})
        assert str(caught.value) == message

    def test_a_sample_rejects_a_carriage_return_in_its_id(self):
        with pytest.raises(ValidationError) as caught:
            make("a\rb", "some text", SampleClass.NO_ADE)
        assert str(caught.value) == f"text id 'a\\rb' {ID_RULE}"


# An id that no file can hold, longer than a message echoes.
LONG_TAB_ID = "a\tb" + "i" * 5000
LONG_TAB_ID_ECHO = f"'a\\tb{'i' * 37}…'"


class TestLongValuesAreEchoedCut:
    def test_a_sample_echoes_an_unwritable_id_cut(self):
        with pytest.raises(ValidationError) as caught:
            make(LONG_TAB_ID, "some text", SampleClass.NO_ADE)
        assert str(caught.value) == f"text id {LONG_TAB_ID_ECHO} {ID_RULE}"

    def test_a_prediction_file_echoes_an_unwritable_id_cut(self):
        with pytest.raises(ValidationError) as caught:
            PredictionFile({}, {LONG_TAB_ID: frozenset()})
        assert str(caught.value) == f"text id {LONG_TAB_ID_ECHO} {ID_RULE}"

    def test_an_unknown_format_is_echoed_cut(self, tmp_path):
        (tmp_path / "x.tsv").write_text(CORPUS_HEADER + "\n", encoding="utf-8")
        for call in (
            lambda format: write_corpus(PARTITION, tmp_path / "y.tsv", format=format),
            lambda format: load_corpus(tmp_path / "x.tsv", format=format),
        ):
            with pytest.raises(ValidationError) as caught:
                call("csv" * 20)
            assert str(caught.value) == f"unknown corpus format '{('csv' * 14)[:40]}…'"

    def test_unknown_ids_are_each_echoed_cut(self):
        corpus = CorpusPartition("custom", (make("x1", "all quiet", SampleClass.NO_ADE),))
        entries = {f"{i}{LONG_ID}": frozenset() for i in range(6)}
        with pytest.raises(ValidationError) as caught:
            validate_predictions(PredictionFile({}, entries), corpus)
        listed = ", ".join(f"{i}{'i' * 39}…" for i in range(5))
        assert str(caught.value) == (
            f"predictions reference unknown text ids: {listed} and 1 more"
        )

    def test_a_long_offset_past_the_text_is_echoed_cut(self):
        corpus = CorpusPartition("custom", (make("x1", "all quiet today", SampleClass.NO_ADE),))
        predictions = PredictionFile({}, {"x1": frozenset({Span(0, int(LONG_OFFSET))})})
        with pytest.raises(ValidationError) as caught:
            validate_predictions(predictions, corpus)
        assert str(caught.value) == (
            f"prediction for 'x1': span [0, {LONG_OFFSET_ECHO}) exceeds text length 15"
        )

    def test_a_loaded_partition_is_named_after_its_file(self, tmp_path):
        path = tmp_path / "dev.tsv"
        write_corpus(PARTITION, path)
        assert load_corpus(path).name == "dev"


class TestValidatePredictions:
    CORPUS = CorpusPartition(
        "custom",
        (
            make("a1", "the nausea is back", SampleClass.ADE, Span(4, 10)),
            make("x1", "all quiet today", SampleClass.NO_ADE),
        ),
    )

    def test_fitting_predictions_pass(self):
        predictions = PredictionFile({}, {"a1": frozenset({Span(4, 10)}), "x1": frozenset()})
        validate_predictions(predictions, self.CORPUS)

    def test_unknown_ids_rejected(self):
        predictions = PredictionFile({}, {"nope": frozenset({Span(0, 2)})})
        with pytest.raises(ValidationError, match="nope"):
            validate_predictions(predictions, self.CORPUS)

    @pytest.mark.parametrize(
        "count,listed",
        [(5, "zz0, zz1, zz2, zz3, zz4"), (6, "zz0, zz1, zz2, zz3, zz4 and 1 more")],
    )
    def test_unknown_ids_are_listed_up_to_five(self, count, listed):
        entries = {f"zz{i}": frozenset() for i in reversed(range(count))}
        with pytest.raises(ValidationError) as caught:
            validate_predictions(PredictionFile({}, {"a1": frozenset(), **entries}), self.CORPUS)
        assert str(caught.value) == f"predictions reference unknown text ids: {listed}"

    def test_out_of_bounds_spans_rejected(self):
        predictions = PredictionFile({}, {"x1": frozenset({Span(0, 99)})})
        with pytest.raises(ValidationError, match="exceeds text length"):
            validate_predictions(predictions, self.CORPUS)

    @pytest.mark.parametrize(
        "text_id,shown",
        [("x1", "'x1'"), ("i" * 40, f"'{'i' * 40}'"), (LONG_ID, LONG_ID_ECHO)],
        ids=["short", "40-characters", "long"],
    )
    def test_out_of_bounds_message_echoes_the_id_cut(self, text_id, shown):
        corpus = CorpusPartition("custom", (make(text_id, "all quiet today", SampleClass.NO_ADE),))
        predictions = PredictionFile({}, {text_id: frozenset({Span(0, 99)})})
        with pytest.raises(ValidationError) as caught:
            validate_predictions(predictions, corpus)
        assert str(caught.value) == f"prediction for {shown}: span [0, 99) exceeds text length 15"


# Ids and metadata may hold what a file cannot: the record must then refuse
# them when made. Refused ids hold a separator anywhere, are blank or empty,
# or start with "#" or a byte order mark.
refused_ids = st.one_of(
    st.tuples(
        st.text(alphabet="ab1 :#\ufeff", max_size=3),
        st.sampled_from("\t\n\r"),
        st.text(alphabet="ab1 \t\n\r:#", max_size=3),
    ).map("".join),
    st.text(alphabet=" \t\u00a0\u3000\x1c", max_size=3),
    st.tuples(st.sampled_from("#\ufeff"), st.text(alphabet="ab1 #", max_size=4)).map("".join),
)
metadata_fields = st.text(alphabet="ab_ \t\n\r:#", max_size=6)
contents = st.text(
    alphabet="ab xyz\t\n\r\\:;|#@'é👍", min_size=1, max_size=40
).filter(lambda t: t.strip())


def holdable(text_id: str) -> bool:
    """Whether every corpus and prediction file holds the id as it is."""
    return (
        text_id.strip() != ""
        and not any(separator in text_id for separator in "\t\n\r")
        and text_id[0] not in "#\ufeff"
    )


# Ids every file holds, most draws passing the filter: "#" and U+FEFF
# anywhere but at the start, spaces anywhere in an id that is not blank.
holdable_ids = st.text(
    alphabet="abcdefghij0123456789_- :#\ufeff\u00a0", min_size=1, max_size=8
).filter(holdable)
holdable_pairs = st.tuples(
    st.text(alphabet="ab_ \t#", max_size=6).map(str.strip),
    st.text(alphabet="ab_ \t:#", max_size=6).map(str.strip),
)
# A pair no line holds: a key ending in a line break, ":" or whitespace, or
# a value starting in a line break or whitespace.
refused_pairs = st.one_of(
    st.tuples(metadata_fields, st.sampled_from("\n\r: \t"), metadata_fields).map(
        lambda t: (t[0] + t[1], t[2])
    ),
    st.tuples(metadata_fields, st.sampled_from("\n\r \t"), metadata_fields).map(
        lambda t: (t[0], t[1] + t[2])
    ),
)
prediction_entries = st.dictionaries(
    holdable_ids,
    st.frozensets(
        st.builds(
            lambda s, w: Span(s, s + w),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=10),
        ),
        max_size=4,
    ),
    max_size=5,
)


@st.composite
def sample_rows(draw):
    """Arguments of ``make`` for up to six samples with distinct holdable ids;
    a class A sample holds 1–3 disjoint spans, touching or apart, in any order."""
    rows = []
    for sid in draw(st.lists(holdable_ids, max_size=6, unique=True)):
        content = draw(contents)
        cls = draw(st.sampled_from(list(SampleClass)))
        spans: list[Span] = []
        if cls is SampleClass.ADE:
            offsets = st.integers(min_value=0, max_value=len(content))
            bounds = sorted(draw(st.sets(offsets, min_size=2, max_size=4)))
            pieces = [Span(start, end) for start, end in zip(bounds, bounds[1:])]
            spans = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3, unique=True))
        rows.append((sid, content, cls, *spans))
    return rows


MULTI_SPAN_ROWS = [
    ("m1", "my\theadache, no\nrash", SampleClass.ADE, Span(16, 20), Span(0, 2), Span(3, 11)),
    ("m2", "C:\\dose\\nausea!", SampleClass.ADE, Span(8, 14), Span(2, 8)),
    ("x1", "all quiet", SampleClass.NO_ADE),
]


class TestRoundTripProperties:
    """A record of ids and metadata every file holds writes a file that loads
    back equal; one holding an id or a metadata pair no file holds is refused
    when made."""

    # Texts holding a tab, a newline and backslashes, in samples of several
    # spans out of order, are always tried.
    @given(sample_rows(), st.sampled_from(["tsv", "jsonl"]))
    @example(MULTI_SPAN_ROWS, "tsv")
    @example(MULTI_SPAN_ROWS, "jsonl")
    def test_any_partition_survives_serialisation(self, tmp_path_factory, rows, format):
        partition = CorpusPartition("custom", [make(*row) for row in rows])
        path = tmp_path_factory.mktemp("prop") / f"corpus.{format}"
        write_corpus(partition, path, format=format)
        loaded = load_corpus(path, format=format)
        assert loaded.samples == partition.samples

    @given(prediction_entries, st.lists(holdable_pairs, max_size=3).map(dict))
    def test_any_prediction_table_survives_serialisation(
        self, tmp_path_factory, entries, metadata
    ):
        predictions = PredictionFile(metadata, entries)
        path = tmp_path_factory.mktemp("prop") / "preds.tsv"
        write_predictions(predictions, path)
        loaded = load_predictions(path)
        assert loaded.entries == dict(entries)
        assert loaded.metadata == metadata

    @given(sample_rows(), refused_ids, st.integers(min_value=0, max_value=6))
    def test_a_refused_id_refuses_its_record(self, rows, text_id, position):
        rows.insert(position, (text_id, "all quiet", SampleClass.NO_ADE))
        with pytest.raises(ValidationError) as caught:
            CorpusPartition("custom", [make(*row) for row in rows])
        assert str(caught.value).endswith(ID_RULE)
        entries = [(row[0], frozenset(row[3:])) for row in rows]
        with pytest.raises(ValidationError) as caught:
            PredictionFile({}, entries)
        assert str(caught.value).endswith(ID_RULE)

    @given(prediction_entries, st.lists(holdable_pairs, max_size=2), refused_pairs)
    def test_a_refused_metadata_pair_refuses_its_predictions(self, entries, pairs, refused):
        metadata = dict([*pairs, refused])
        with pytest.raises(ValidationError, match="prediction metadata"):
            PredictionFile(metadata, entries)
