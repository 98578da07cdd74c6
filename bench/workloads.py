"""Deterministic benchmark inputs built from the bundled corpus.

Everything here reads only ``data/corpus/`` and a seed; the program under
test sees only the files written by :func:`generate`. The same seed and
scale always give byte-identical files.

* ``short_posts`` and ``short_posts_jobs2`` share one input set: the test
  split replicated with suffixed ids and shuffled by seed, plus the train
  base and pools replicated the same way for ``compose``.
* ``long_posts`` joins thousands of test texts per post with newlines,
  which close every scope, and shifts the gold spans to match. Each post
  holds the same number of copies of every test text, so the pairwise work
  of filter and evaluate is the same for every seed; only the order moves.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("short_posts", "short_posts_jobs2", "long_posts")

SHORT_REPLICAS = 10
LONG_POSTS = 2
LONG_COPIES_PER_POST = 8

HEADER = "id\ttext\tclass\tspans"

# The benchmark's own unit of work. It is the package tokenizer's pattern as
# of the commit that introduced the benchmark, kept here so that throughput
# is counted the same way whatever later changes make to the tokenizer.
_TOKEN_RE = re.compile(r"[#@]\w+(?:['’]\w+)*|\w+(?:['’]\w+)*|[^\w\s]")

_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE = {ord("\\"): "\\\\", ord("\t"): "\\t", ord("\n"): "\\n", ord("\r"): "\\r"}


@dataclass(frozen=True)
class Workload:
    """Generated input files plus how the CLI chain runs over them."""

    name: str
    corpus: Path
    # compose inputs: base, then the N and S pools when the workload has them
    compose: tuple[Path, Path | None, Path | None]
    jobs: int
    # short posts: the README row times this many copies is the expected tally
    replicas: int | None
    # long posts: predictions are the extractor's spans widened by one character
    widen: bool
    samples: int
    tokens: int
    bytes: int


def _read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != HEADER:
        raise ValueError(f"{path}: unexpected header")
    return [line.split("\t") for line in lines[1:] if line]


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    path.write_text("\n".join([HEADER, *("\t".join(r) for r in rows)]) + "\n", encoding="utf-8")


def _replicate(rows: list[list[str]], copies: int, rng: random.Random) -> list[list[str]]:
    out = [[f"{r[0]}-r{i}", *r[1:]] for i in range(copies) for r in rows]
    rng.shuffle(out)
    return out


def _unescape(field: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPE[m.group(1)], field)


def _long_posts(rows: list[list[str]], posts: int, copies: int, rng: random.Random):
    out = []
    for p in range(posts):
        batch = rows * copies
        rng.shuffle(batch)
        texts, spans, offset = [], [], 0
        for row in batch:
            text = _unescape(row[1])
            for pair in filter(None, row[3].split(";")):
                start, end = map(int, pair.split(":"))
                spans.append(f"{start + offset}:{end + offset}")
            texts.append(text)
            offset += len(text) + 1
        label = "A" if spans else "X"
        out.append([f"long-{p}", "\n".join(texts).translate(_ESCAPE), label, ";".join(spans)])
    return out


def _count_tokens(rows: list[list[str]]) -> int:
    return sum(len(_TOKEN_RE.findall(_unescape(r[1]))) for r in rows)


def generate(name: str, seed: int, scale: float, data: Path, out: Path) -> Workload:
    """Write the inputs of one workload into ``out`` and describe them."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name.removesuffix('_jobs2')}:{seed}")
    test = _read_rows(data / "test.tsv")
    corpus = out / "corpus.tsv"
    if name == "long_posts":
        copies = max(1, round(LONG_COPIES_PER_POST * scale))
        rows = _long_posts(test, LONG_POSTS, copies, rng)
        _write_rows(corpus, rows)
        return Workload(
            name, corpus, (corpus, None, None), 1, None, True,
            len(rows), _count_tokens(rows), corpus.stat().st_size,
        )
    copies = max(1, round(SHORT_REPLICAS * scale))
    rows = _replicate(test, copies, rng)
    _write_rows(corpus, rows)
    compose = []
    for source in ("train_base.tsv", "train_n_pool.tsv", "train_s_pool.tsv"):
        path = out / source
        _write_rows(path, _replicate(_read_rows(data / source), copies, rng))
        compose.append(path)
    return Workload(
        name, corpus, tuple(compose), 2 if name.endswith("_jobs2") else 1,
        copies, False, len(rows), _count_tokens(rows), corpus.stat().st_size,
    )


def widen_predictions(predictions: Path, corpus: Path, out: Path) -> None:
    """Copy a prediction file with every span widened by one character.

    The end moves right, or the start left when the span ends the text, so
    each prediction overlaps its gold span without equalling it.
    """
    lengths = {row[0]: len(_unescape(row[1])) for row in _read_rows(corpus)}
    lines = []
    for line in predictions.read_text(encoding="utf-8").split("\n"):
        if not line or line.startswith("#"):
            lines.append(line)
            continue
        text_id, field = line.split("\t")
        spans = []
        for pair in filter(None, field.split(";")):
            start, end = map(int, pair.split(":"))
            if end < lengths[text_id]:
                end += 1
            else:
                start -= 1
            spans.append(f"{start}:{end}")
        lines.append(f"{text_id}\t{';'.join(spans)}")
    out.write_text("\n".join(lines), encoding="utf-8")
