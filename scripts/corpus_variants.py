#!/usr/bin/env python3
"""Write three variants of the bundled test split that reach code it does not.

    scripts/corpus_variants.py OUTDIR

writes ``OUTDIR/test-nonascii.tsv`` and ``OUTDIR/test-escaped.tsv``, with
the same ids, classes and order as ``data/corpus/test.tsv``, and
``OUTDIR/test-long.tsv``:

- Every bundled corpus is pure ASCII. The non-ASCII variant gives every text
  curly apostrophes and a non-ASCII suffix. "'" -> "’" keeps every offset
  and the suffix follows every span, so the gold spans stay valid, and
  the matcher keys curly apostrophes and non-ASCII words.
- No bundled text holds a backslash escape and no row holds two spans. The
  escaped variant appends `` \\t(see \\\\ note)\\r\\n then nausea`` (as escaped
  in the file) to every text and gives every class A row a second span over
  that "nausea", at its offset in the unescaped text, so the unescape pass
  and the escaping writer run on each of the four escapes, and the span
  join runs.
- Every bundled text is a short post. The long variant joins consecutive
  texts with newlines into posts of over 2,048 characters (the last post
  takes what is left; earlier versions keyed texts past that length on a
  path of their own), with each text's spans shifted to its offset in the
  post; a post is class A when it has spans and X otherwise. Its ids are
  ``long-1``, ``long-2`` and so on.

``scripts/cli_outputs.sh SRC OUT OUTDIR/test-nonascii.tsv`` (or another
variant) then runs the command-line chain on a variant.
"""

from __future__ import annotations

import argparse
from pathlib import Path

TEST_SPLIT = Path(__file__).resolve().parent.parent / "data" / "corpus" / "test.tsv"

# The escaped variant's suffix as written in the file, and as a loader reads it.
ESCAPED_SUFFIX = " \\t(see \\\\ note)\\r\\n then nausea"
UNESCAPED_SUFFIX = " \t(see \\ note)\r\n then nausea"


def nonascii(text_id: str, text: str, cls: str, spans: str) -> tuple[str, ...]:
    return text_id, text.replace("'", "’") + " — café", cls, spans


def escaped(text_id: str, text: str, cls: str, spans: str) -> tuple[str, ...]:
    if "\\" in text:  # the unescaped text would no longer be the field itself
        raise ValueError(f"text {text_id} already holds a backslash")
    if cls == "A":
        start = len(text) + UNESCAPED_SUFFIX.index("nausea")
        spans += f";{start}:{start + len('nausea')}"
    return text_id, text + ESCAPED_SUFFIX, cls, spans


LONG_POST_CHARS = 2048


def long_posts(rows: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    posts: list[tuple[str, ...]] = []
    texts: list[str] = []
    spans: list[str] = []
    offset = 0  # of the next text in the unescaped post, newlines included

    def flush() -> None:
        posts.append((f"long-{len(posts) + 1}", "\\n".join(texts),
                      "A" if spans else "X", ";".join(spans)))
        texts.clear()
        spans.clear()

    for text_id, text, _, span_field in rows:
        if "\\" in text:  # the offsets would count escapes, not characters
            raise ValueError(f"text {text_id} holds a backslash")
        for chunk in filter(None, span_field.split(";")):
            start, end = map(int, chunk.split(":"))
            spans.append(f"{start + offset}:{end + offset}")
        texts.append(text)
        offset += len(text) + 1
        if offset - 1 > LONG_POST_CHARS:
            flush()
            offset = 0
    if texts:
        flush()
    return posts


VARIANTS = {
    "test-nonascii.tsv": lambda rows: [nonascii(*row) for row in rows],
    "test-escaped.tsv": lambda rows: [escaped(*row) for row in rows],
    "test-long.tsv": long_posts,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path, help="directory to write the variants into")
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    header, *rows = TEST_SPLIT.read_text(encoding="utf-8").splitlines()
    fields = [tuple(row.split("\t")) for row in rows]
    for name, variant in VARIANTS.items():
        lines = [header, *map("\t".join, variant(fields))]
        (outdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
