#!/usr/bin/env python3
"""Compare filter selections over a corpus with the lexicon baseline.

Extracts event spans with the bundled term list, then scores the raw
predictions and each scope-filtered variant (negation only, speculation
only, both) against the gold annotations. Prints one row per selection
with match counts, per-class false positives and relaxed scores, making
the headline effect visible: the scoped filters cut false positives in
their own class while leaving true positives mostly alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from adescope import (  # noqa: E402
    REPORT_CLASS_ORDER,
    default_ade_lexicon,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    evaluate_corpus,
    extract,
    filter_by_scopes,
    load_corpus,
)
from adescope.scope import DEFAULT_WINDOW  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--corpus",
        type=Path,
        default=REPO / "data" / "corpus" / "test.tsv",
        help="corpus TSV to evaluate on (default: bundled test split)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"scope window in tokens (default: {DEFAULT_WINDOW})",
    )
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")

    corpus = load_corpus(args.corpus)
    lexicon = default_ade_lexicon()
    negation, speculation = default_negation_lexicon(), default_speculation_lexicon()
    # The same selections, and the same detect-then-filter path, as the CLI's --filters.
    selections = {
        "none": (),
        "neg": (negation,),
        "spec": (speculation,),
        "neg+spec": (negation, speculation),
    }
    baseline = [extract(sample.text, lexicon) for sample in corpus.samples]

    print(f"corpus: {args.corpus} ({len(corpus)} samples)")
    class_header = " ".join(f"FP:{c.value}" for c in REPORT_CLASS_ORDER)
    print(
        f"{'selection':<9} {'pred':>5} {'TP':>4} {'Par':>4} {'FP':>4} {'FN':>4}  "
        f"{class_header}  {'P':>7} {'R':>7} {'F1':>7}"
    )
    for selection, lexicons in selections.items():
        entity_sets = [
            filter_by_scopes(entities, detect(sample.text, lexicons, args.window)).kept
            for entities, sample in zip(baseline, corpus.samples)
        ]
        report = evaluate_corpus(corpus.samples, entity_sets)
        scores = report.scores
        predicted = sum(len(e.spans) for e in entity_sets)
        class_cells = " ".join(
            f"{report.fp_by_class[c]:>4}" for c in REPORT_CLASS_ORDER
        )
        print(
            f"{selection:<9} {predicted:>5} {report.tp:>4} {report.par:>4} "
            f"{report.fp:>4} {report.fn:>4}  {class_cells}  "
            f"{scores.precision:>7.4f} {scores.recall:>7.4f} {scores.f1:>7.4f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
