from __future__ import annotations

import importlib.util
from pathlib import Path

from adescope import SampleClass, load_corpus

REPO = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_filter_comparison_prints_the_readme_table(capsys):
    script = _load_script("run_filter_comparison")
    assert script.main([]) == 0
    printed = capsys.readouterr().out.splitlines()
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    after_intro = readme.split("`scripts/run_filter_comparison.py` runs", 1)[1]
    table = after_intro.split("```\n")[1]
    assert printed[0].startswith("corpus: ")
    assert printed[1:] == table.splitlines()


def test_corpus_variants_load_with_every_sample(tmp_path):
    script = _load_script("corpus_variants")
    assert script.main([str(tmp_path)]) == 0
    test_split = load_corpus(REPO / "data" / "corpus" / "test.tsv")
    nonascii = load_corpus(tmp_path / "test-nonascii.tsv")
    escaped = load_corpus(tmp_path / "test-escaped.tsv")
    for variant in (nonascii, escaped):
        assert len(variant) == len(test_split) == 540
        assert [s.text.id for s in variant.samples] == [s.text.id for s in test_split.samples]
    assert not any(sample.text.content.isascii() for sample in nonascii.samples)
    for sample in escaped.samples:
        assert sample.text.content.endswith(" \t(see \\ note)\r\n then nausea")
        assert len(sample.gold_spans) == (2 if sample.sample_class is SampleClass.ADE else 0)


def test_long_variant_joins_every_text_with_its_spans(tmp_path):
    script = _load_script("corpus_variants")
    assert script.main([str(tmp_path)]) == 0
    test_split = load_corpus(REPO / "data" / "corpus" / "test.tsv")
    long = load_corpus(tmp_path / "test-long.tsv")
    assert all(len(s.text.content) > 2048 for s in long.samples[:-1])
    assert "\n".join(s.text.content for s in long.samples) == "\n".join(
        s.text.content for s in test_split.samples
    )

    def surfaces(corpus):
        return [
            s.text.content[span.start : span.end]
            for s in corpus.samples
            for span in sorted(s.gold_spans)
        ]

    assert surfaces(long) == surfaces(test_split)
    for sample in long.samples:
        assert sample.sample_class is (SampleClass.ADE if sample.gold_spans else SampleClass.NO_ADE)
