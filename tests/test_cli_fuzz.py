"""Fuzz the command line with mutated input files.

Each example mutates one input file (the corpus as TSV or JSONL, the
predictions, a cue lexicon, an ADE term list or a config) and runs
``extract``, ``filter`` and ``evaluate`` over it through ``main()``. Every
run must exit 0, 1 or 2 without an exception escaping, and every data
error (exit 2) must name the mutated file in lines of at most 300
characters besides the input paths. A second case draws ``filter``'s
``--out`` and ``--audit`` paths from awkward kinds and checks that a failed
run changes neither target and leaves no temporary file behind. A third
draws small corpora whose ids may hold what no file can: a corpus that
loads must run through the chain, and each file written must load back
equal; one that does not load must be refused at a line of its file.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adescope import (
    CORPUS_HEADER,
    ParseError,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    extract,
    load_corpus,
    load_predictions,
    prefilter,
    write_corpus,
    write_predictions,
)
from adescope.cli import main
from adescope.corpus import escape_tsv

FILES = ("corpus.tsv", "corpus.jsonl", "preds.tsv", "neg.txt", "terms.txt", "config.json")

# Byte runs that reach the parsers' edge cases more often than random bytes
# do: separators, a BOM, undecodable bytes, JSON literals, an integer past
# the interpreter's digit limit, one just short of it, a long word and
# nesting past the recursion limit.
SPECIALS = (
    b"\t", b"\n", b"\r", b"#", b":", b";", b"|", b",", b'"', b"\\", b"[", b"]", b"{", b"}",
    b"-1", b"0", b"99999", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"null", b"true", b"1.5",
    b"9" * 5001, b"9" * 4000, b"w" * 300, b"[" * 5000,
)

# A message echoes a few input values, each cut short, so no line of it is
# longer than this once the input paths are taken out.
MESSAGE_LINE_CHARS = 300


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, e2e_corpus_path):
    """Valid input files, plus a directory for mutated copies and outputs."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "corpus.tsv").write_bytes(e2e_corpus_path.read_bytes())
    write_corpus(load_corpus(e2e_corpus_path), base / "corpus.jsonl", format="jsonl")
    for name, content in (
        ("neg.txt", "no|pre_trigger\nnot|pre_trigger\nzero|pre_trigger\n"),
        ("terms.txt", "# terms\nheadaches\nnausea\nhives\npain\n"),
        ("config.json", json.dumps({"window": 5, "filters": "neg+spec"})),
    ):
        (base / name).write_text(content, encoding="utf-8")
    argv = ["extract", "--corpus", str(base / "corpus.tsv"), "--out", str(base / "preds.tsv")]
    assert main(argv) == 0
    (base / "mutated").mkdir()
    (base / "out").mkdir()
    return base


@st.composite
def mutations(draw):
    """One input file's name and a single splice: delete a run, insert bytes."""
    name = draw(st.sampled_from(FILES))
    start = draw(st.integers(0, 2000))
    deleted = draw(st.integers(0, 12))
    inserted = draw(st.one_of(st.binary(max_size=8), st.sampled_from(SPECIALS)))
    return name, start, deleted, inserted


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutation=mutations())
def test_mutated_inputs_exit_cleanly_and_name_the_file(inputs, mutation):
    name, start, deleted, inserted = mutation
    original = (inputs / name).read_bytes()
    start %= len(original) + 1
    mutated = inputs / "mutated" / name
    mutated.write_bytes(original[:start] + inserted + original[start + deleted :])

    path = {other: str(inputs / other) for other in FILES}
    path[name] = str(mutated)
    jsonl = name == "corpus.jsonl"
    corpus = ["--corpus", path["corpus.jsonl" if jsonl else "corpus.tsv"]]
    common = [*corpus, "--format", "jsonl" if jsonl else "tsv", "--config", path["config.json"]]
    out = inputs / "out"
    commands = [
        ["extract", *common, "--ade-lexicon", path["terms.txt"], "--out", str(out / "p.tsv")],
        [
            "filter", *common, "--predictions", path["preds.tsv"],
            "--neg-lexicon", path["neg.txt"], "--out", str(out / "f.tsv"),
        ],
        ["evaluate", *common, "--predictions", path["preds.tsv"], "--out", str(out / "r.json")],
    ]
    for argv in commands:
        code, err = run(argv)
        assert code in (0, 1, 2), (argv[0], code, err)
        if code == 2:
            assert str(mutated) in err, (argv[0], err)
            lines = err.replace(str(inputs), "").splitlines()
            assert max(map(len, lines)) <= MESSAGE_LINE_CHARS, (argv[0], err[:1000])
        if mutated.read_bytes() == original:
            assert code == 0, (argv[0], err)


# Kinds of output path: a file in a missing directory, an existing
# directory, a path under a regular file, and a symlink to an existing file.
OUTPUT_KINDS = ("missing_dir", "existing_dir", "under_file", "symlink")


def output_path(root, kind: str, flag: str):
    if kind == "missing_dir":
        return root / "missing" / f"{flag}.tsv"
    if kind == "existing_dir":
        (root / flag).mkdir()
        return root / flag
    if kind == "under_file":
        (root / "plain").write_text("plain\n", encoding="utf-8")
        return root / "plain" / f"{flag}.tsv"
    (root / f"{flag}.real").write_text("old\n", encoding="utf-8")
    (root / f"{flag}.link").symlink_to(root / f"{flag}.real")
    return root / f"{flag}.link"


def snapshot(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


@settings(max_examples=40, deadline=None)
@given(out_kind=st.sampled_from(OUTPUT_KINDS), audit_kind=st.sampled_from(OUTPUT_KINDS))
def test_filter_output_paths_are_all_or_nothing(inputs, out_kind, audit_kind):
    root = inputs / "paths"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    out = output_path(root, out_kind, "out")
    audit = output_path(root, audit_kind, "audit")
    before = snapshot(root)
    code, err = run([
        "filter", "--corpus", str(inputs / "corpus.tsv"),
        "--predictions", str(inputs / "preds.tsv"), "--out", str(out), "--audit", str(audit),
    ])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if out_kind == audit_kind == "symlink":
        assert code == 0, err
        assert out.read_text(encoding="utf-8").startswith("#")
        assert audit.read_text(encoding="utf-8").startswith("id\t")
    elif code != 0:
        assert snapshot(root) == before
    assert not [path for path in root.rglob(".*.tmp")]


# Ids beside ordinary ones: blank, led by "#" or a byte order mark, holding
# a separator, other line and space characters a reader must not split on,
# and a lone surrogate, which JSON can escape but no UTF-8 file can hold.
CHAIN_IDS = st.one_of(
    st.text(alphabet="ab1 #\t\n\r\ufeff\\\x0b\x1c\x85\u2028", min_size=1, max_size=5),
    st.sampled_from(["#1", "  ", "a\tb", "\ufeffa", "a\ud800", "s1"]),
)
WORDS = ("i", "have", "no", "headache", "maybe", "nausea", "not", "sure", ".", "hives", "\\")


@st.composite
def corpora(draw):
    """A corpus format and ``(id, text, class, spans)`` rows with distinct ids."""
    rows = []
    for sid in draw(st.lists(CHAIN_IDS, min_size=1, max_size=4, unique=True)):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
        text = " ".join(words)
        if "headache" in words and draw(st.booleans()):
            start = text.index("headache")
            rows.append((sid, text, "A", [[start, start + len("headache")]]))
        else:
            rows.append((sid, text, draw(st.sampled_from("XNS")), []))
    return draw(st.sampled_from(["tsv", "jsonl"])), rows


def write_corpus_file(path, format: str, rows) -> None:
    """The rows as a corpus file, written without the package's checks."""
    if format == "tsv":
        lines = [CORPUS_HEADER] + [
            f"{sid}\t{escape_tsv(text)}\t{cls}\t{';'.join(f'{s}:{e}' for s, e in spans)}"
            for sid, text, cls, spans in rows
        ]
    else:
        lines = [
            json.dumps({"id": sid, "text": text, "class": cls, "spans": spans})
            for sid, text, cls, spans in rows
        ]
    # A lone surrogate is written as the bytes of one, which no reader decodes.
    content = "".join(line + "\n" for line in lines)
    path.write_text(content, encoding="utf-8", errors="surrogatepass")


def rewrites_identically(path, load, write, **options) -> None:
    """The file, written by the package, loads, and writing what it loaded
    gives the same bytes."""
    copy = path.with_name(f"copy-{path.name}")
    write(load(path, **options), copy, **options)
    assert copy.read_bytes() == path.read_bytes()


@settings(max_examples=80, deadline=None)
@given(corpus=corpora())
@example(corpus=("tsv", [("#1", "i have a headache", "X", [])]))
@example(corpus=("tsv", [("  ", "i have a headache", "X", [])]))
@example(corpus=("jsonl", [("a\tb", "i have a headache", "X", [])]))
def test_a_corpus_that_loads_runs_through_the_chain(tmp_path_factory, corpus):
    format, rows = corpus
    root = tmp_path_factory.mktemp("chain")
    path = root / f"corpus.{format}"
    write_corpus_file(path, format, rows)
    common = ["--corpus", str(path), "--format", format]
    try:
        partition = load_corpus(path, format=format)
    except ParseError:
        code, err = run(["extract", *common, "--out", str(root / "p.tsv")])
        assert code == 2, err
        assert re.match(rf"adescope: error: {re.escape(str(path))}:\d+", err), err
        assert sorted(root.iterdir()) == [path]
        return

    preds, filtered, kept = root / "p.tsv", root / "f.tsv", root / f"kept.{format}"
    for argv in (
        ["extract", *common, "--out", str(preds)],
        ["filter", *common, "--predictions", str(preds), "--out", str(filtered)],
        ["evaluate", *common, "--predictions", str(filtered), "--out", str(root / "r.json")],
        ["prefilter", *common, "--out", str(kept)],
    ):
        code, err = run(argv)
        assert code == 0, (argv[0], err)

    copy = root / f"copy.{format}"
    write_corpus(partition, copy, format=format)
    assert load_corpus(copy, format=format).samples == partition.samples
    lexicon = default_ade_lexicon()
    assert load_predictions(preds).entries == {
        sample.text.id: extract(sample.text, lexicon).spans for sample in partition.samples
    }
    for written in (preds, filtered):
        rewrites_identically(written, load_predictions, write_predictions)
    assert load_predictions(filtered).entries.keys() == partition.by_id.keys()
    cues = (default_negation_lexicon(), default_speculation_lexicon())
    assert load_corpus(kept, format=format).samples == tuple(prefilter(partition.samples, cues))
    rewrites_identically(kept, load_corpus, write_corpus, format=format)
