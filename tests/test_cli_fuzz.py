"""Fuzz the command line with mutated input files.

Each example mutates one input file (the corpus as TSV or JSONL, the
predictions, a cue lexicon, an ADE term list or a config) and runs
``extract``, ``filter`` and ``evaluate`` over it through ``main()``. Every
run must exit 0, 1 or 2 without an exception escaping, and every data
error (exit 2) must name the mutated file in lines of at most 300
characters besides the input paths. A second case draws ``filter``'s
``--out`` and ``--audit`` paths from awkward kinds and checks that a failed
run changes neither target and leaves no temporary file behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adescope import load_corpus, write_corpus
from adescope.cli import main

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
