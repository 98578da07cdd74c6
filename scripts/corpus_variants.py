#!/usr/bin/env python3
"""Write two variants of the bundled test split that reach code it does not.

    scripts/corpus_variants.py OUTDIR

writes ``OUTDIR/test-nonascii.tsv`` and ``OUTDIR/test-escaped.tsv``, with
the same ids, classes and order as ``data/corpus/test.tsv``:

- Every bundled corpus is pure ASCII. The non-ASCII variant gives every text
  curly apostrophes and a non-ASCII suffix. "'" -> "’" keeps every offset
  and the suffix follows every span, so the gold spans stay valid, and the
  per-token path of the tokenize gate runs.
- No bundled text holds a backslash escape and no row holds two spans. The
  escaped variant appends `` \\t(see \\\\ note)\\n then nausea`` (as escaped in
  the file) to every text and gives every class A row a second span over
  that "nausea", at its offset in the unescaped text, so the unescape pass,
  the escaping writer and the span join all run.

``scripts/cli_outputs.sh SRC OUT OUTDIR/test-nonascii.tsv`` (or the escaped
file) then runs the command-line chain on a variant.
"""

from __future__ import annotations

import argparse
from pathlib import Path

TEST_SPLIT = Path(__file__).resolve().parent.parent / "data" / "corpus" / "test.tsv"

# The escaped variant's suffix as written in the file, and as a loader reads it.
ESCAPED_SUFFIX = " \\t(see \\\\ note)\\n then nausea"
UNESCAPED_SUFFIX = " \t(see \\ note)\n then nausea"


def nonascii(text_id: str, text: str, cls: str, spans: str) -> tuple[str, ...]:
    return text_id, text.replace("'", "’") + " — café", cls, spans


def escaped(text_id: str, text: str, cls: str, spans: str) -> tuple[str, ...]:
    if "\\" in text:  # the unescaped text would no longer be the field itself
        raise ValueError(f"text {text_id} already holds a backslash")
    if cls == "A":
        start = len(text) + UNESCAPED_SUFFIX.index("nausea")
        spans += f";{start}:{start + len('nausea')}"
    return text_id, text + ESCAPED_SUFFIX, cls, spans


VARIANTS = {"test-nonascii.tsv": nonascii, "test-escaped.tsv": escaped}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path, help="directory to write the variants into")
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    header, *rows = TEST_SPLIT.read_text(encoding="utf-8").splitlines()
    for name, variant in VARIANTS.items():
        lines = [header, *("\t".join(variant(*row.split("\t"))) for row in rows)]
        (outdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
