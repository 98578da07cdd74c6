from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adescope
import adescope.cli
from adescope import (
    CORPUS_HEADER,
    EntitySet,
    default_negation_lexicon,
    default_speculation_lexicon,
    detect,
    filter_by_scopes,
    load_corpus,
    load_predictions,
    match_spans,
    tokenize,
)
from adescope.cli import AUDIT_HEADER, DETECT_HEADER, main
from adescope.corpus import escape_tsv, format_spans
from adescope.scope import DEFAULT_WINDOW

E2E_IDS = {f"s{i:02d}" for i in range(1, 13)}


def total_spans(path) -> int:
    return sum(len(spans) for spans in load_predictions(path).entries.values())


# Cue-bearing texts with empty prediction rows (f1, f4), a text absent from
# the predictions (f2), and one prediction inside a scope and one outside (f3).
SPARSE_CORPUS = (
    f"{CORPUS_HEADER}\n"
    "f1\tno headache today\tN\t\n"
    "f2\ti have a headache\tA\t9:17\n"
    "f3\tno nausea so far, but this pill gives me a rash\tA\t43:47\n"
    "f4\tmaybe the dose is fine\tX\t\n"
)
SPARSE_PREDICTIONS = "# model: m\nf1\t\nf3\t3:9;43:47\nf4\t\n"


@pytest.fixture
def sparse_paths(tmp_path):
    corpus, preds = tmp_path / "sparse.tsv", tmp_path / "sparse.preds.tsv"
    corpus.write_text(SPARSE_CORPUS, encoding="utf-8")
    preds.write_text(SPARSE_PREDICTIONS, encoding="utf-8")
    return corpus, preds


@pytest.fixture(scope="module")
def preds_path(tmp_path_factory, e2e_corpus_path):
    """Baseline predictions over the end-to-end corpus, written once."""
    out = tmp_path_factory.mktemp("cli") / "preds.tsv"
    code = main(["extract", "--corpus", str(e2e_corpus_path), "--out", str(out)])
    assert code == 0
    return out


class TestExtract:
    def test_writes_metadata_and_all_ids(self, preds_path):
        predictions = load_predictions(preds_path)
        assert predictions.metadata["model"] == "lexicon-baseline"
        assert set(predictions.entries) == E2E_IDS

    def test_known_sample_spans(self, preds_path, e2e_corpus_path, e2e_tally):
        predictions = load_predictions(preds_path)
        corpus = load_corpus(e2e_corpus_path)
        s01 = corpus.by_id["s01"].text.content
        surfaces = {
            s01[s.start : s.end] for s in predictions.entries["s01"]
        }
        assert surfaces == {"headaches", "nausea"}
        assert total_spans(preds_path) == e2e_tally["unfiltered"]["predicted"]

    def test_custom_lexicon(self, tmp_path, e2e_corpus_path):
        lexicon = tmp_path / "terms.txt"
        lexicon.write_text("hypokalemia\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        code = main(
            [
                "extract",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(out),
                "--ade-lexicon",
                str(lexicon),
            ]
        )
        assert code == 0
        assert total_spans(out) == 1

    def test_jobs_do_not_change_output(self, tmp_path, e2e_corpus_path, preds_path):
        out = tmp_path / "preds-j2.tsv"
        code = main(
            [
                "extract",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(out),
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert out.read_bytes() == preds_path.read_bytes()


class TestDetect:
    def test_negation_scopes(self, tmp_path, e2e_corpus_path):
        out = tmp_path / "scopes.tsv"
        code = main(
            [
                "detect",
                "--corpus",
                str(e2e_corpus_path),
                "--phenomenon",
                "neg",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == DETECT_HEADER
        assert "s04\tnegation\t18:44\t14:17\tNOT" in lines
        assert lines[1:] == sorted(lines[1:])

    def test_speculation_scopes(self, tmp_path, e2e_corpus_path):
        out = tmp_path / "scopes.tsv"
        code = main(
            [
                "detect",
                "--corpus",
                str(e2e_corpus_path),
                "--phenomenon",
                "spec",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [l.split("\t") for l in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert {row[0] for row in rows} == {"s07", "s08", "s09"}
        assert all(row[1] == "speculation" for row in rows)

    def test_window_flag_overrides_config(self, tmp_path, e2e_corpus_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window": 1}), encoding="utf-8")
        narrow = tmp_path / "narrow.tsv"
        wide = tmp_path / "wide.tsv"
        plain = tmp_path / "plain.tsv"
        base = ["detect", "--corpus", str(e2e_corpus_path), "--phenomenon", "neg"]
        assert main([*base, "--out", str(narrow), "--config", str(config)]) == 0
        assert (
            main(
                [*base, "--out", str(wide), "--config", str(config), "--window", "5"]
            )
            == 0
        )
        assert main([*base, "--out", str(plain)]) == 0
        assert narrow.read_bytes() != plain.read_bytes()
        assert wide.read_bytes() == plain.read_bytes()

    def test_lexicon_override(self, tmp_path, e2e_corpus_path):
        lexicon = tmp_path / "cues.txt"
        lexicon.write_text("zero|pre_trigger\n", encoding="utf-8")
        out = tmp_path / "scopes.tsv"
        code = main(
            [
                "detect",
                "--corpus",
                str(e2e_corpus_path),
                "--phenomenon",
                "neg",
                "--lexicon",
                str(lexicon),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("s06\t")


class TestFilter:
    def run_filter(self, tmp_path, corpus, preds, selection):
        out = tmp_path / f"{selection.replace('+', '-')}.tsv"
        code = main(
            [
                "filter",
                "--corpus",
                str(corpus),
                "--predictions",
                str(preds),
                "--out",
                str(out),
                "--filters",
                selection,
            ]
        )
        assert code == 0
        return out

    @pytest.mark.parametrize("selection", ["neg", "spec", "neg+spec"])
    def test_filter_counts_match_tally(
        self, tmp_path, e2e_corpus_path, preds_path, e2e_tally, selection
    ):
        out = self.run_filter(tmp_path, e2e_corpus_path, preds_path, selection)
        assert total_spans(out) == e2e_tally[selection]["predicted"]

    def test_none_is_a_byte_identical_passthrough(
        self, tmp_path, e2e_corpus_path, preds_path
    ):
        out = self.run_filter(tmp_path, e2e_corpus_path, preds_path, "none")
        assert out.read_bytes() == preds_path.read_bytes()
        audit = out.parent / f"{out.name}.audit"
        assert audit.read_text(encoding="utf-8") == AUDIT_HEADER + "\n"

    def test_audit_names_the_discards(self, tmp_path, e2e_corpus_path, preds_path):
        out = self.run_filter(tmp_path, e2e_corpus_path, preds_path, "neg+spec")
        audit_lines = (
            (out.parent / f"{out.name}.audit").read_text(encoding="utf-8").splitlines()
        )
        assert audit_lines[0] == AUDIT_HEADER
        assert "s04\t33:44\tnegation\t18:44\tNOT" in audit_lines
        assert len(audit_lines) - 1 == 14 - 8

    def test_explicit_audit_path(self, tmp_path, e2e_corpus_path, preds_path):
        out = tmp_path / "filtered.tsv"
        audit = tmp_path / "why.tsv"
        code = main(
            [
                "filter",
                "--corpus",
                str(e2e_corpus_path),
                "--predictions",
                str(preds_path),
                "--out",
                str(out),
                "--audit",
                str(audit),
            ]
        )
        assert code == 0
        assert audit.read_text(encoding="utf-8").splitlines()[0] == AUDIT_HEADER

    def test_fields_are_escaped_like_corpus_text(self, tmp_path):
        """A cue matched across a line break stays on its row in both TSVs."""
        corpus = tmp_path / "one.tsv"
        corpus.write_text(
            f"{CORPUS_HEADER}\ns1\ti am not\\nsure it is a headache\tS\t\n", encoding="utf-8"
        )
        preds = tmp_path / "preds.tsv"
        preds.write_text("# model: m\ns1\t21:29\n", encoding="utf-8")
        scopes, audit = tmp_path / "scopes.tsv", tmp_path / "audit.tsv"
        detect = ["detect", "--corpus", str(corpus), "--phenomenon", "spec", "--out", str(scopes)]
        assert main(detect) == 0
        assert main(["filter", "--corpus", str(corpus), "--predictions", str(preds),
                     "--filters", "spec", "--out", str(tmp_path / "f.tsv"),
                     "--audit", str(audit)]) == 0
        assert scopes.read_text(encoding="utf-8") == (
            f"{DETECT_HEADER}\ns1\tspeculation\t14:30\t5:13\tnot\\nsure\n"
        )
        assert audit.read_text(encoding="utf-8") == (
            f"{AUDIT_HEADER}\ns1\t21:29\tspeculation\t14:30\tnot\\nsure\n"
        )

    def test_every_entry_is_detected_once_and_the_gate_skips_tokenizing(
        self, tmp_path, monkeypatch, e2e_corpus_path, preds_path
    ):
        detected, tokenized = [], []

        def detecting(text, lexicons, window):
            detected.append(text)
            return detect(text, lexicons, window)

        def counting(text):
            tokenized.append(text.id)
            return tokenize(text)

        monkeypatch.setattr("adescope.cli.detect", detecting)
        monkeypatch.setattr("adescope.scope.tokenize", counting)
        self.run_filter(tmp_path, e2e_corpus_path, preds_path, "neg+spec")
        entries = load_predictions(preds_path).entries
        texts = load_corpus(e2e_corpus_path).by_id
        # Every entry takes one path, those without a predicted span too.
        assert any(spans for spans in entries.values())
        assert any(not spans for spans in entries.values())
        assert detected == [texts[text_id].text for text_id in entries]
        # Of those, a text is tokenized, once, when it holds a cue's first
        # key; a short text without a lexicon's first word is not.
        lexicons = (default_negation_lexicon(), default_speculation_lexicon())
        roots = [{tokenize(cue.pattern).keys[0] for cue in lexicon.cues} for lexicon in lexicons]
        cued = [
            text_id
            for text_id in entries
            if any(not root.isdisjoint(tokenize(texts[text_id].text).keys) for root in roots)
        ]
        assert set(cued) <= set(tokenized)
        assert tokenized == [text_id for text_id in entries if text_id in tokenized]
        assert len(tokenized) < len(entries)

    def test_sparse_predictions_filter_as_every_text_detected(self, tmp_path, sparse_paths):
        corpus_path, preds_path = sparse_paths
        out, audit = tmp_path / "f.tsv", tmp_path / "audit.tsv"
        assert main(["filter", "--corpus", str(corpus_path), "--predictions", str(preds_path),
                     "--out", str(out), "--audit", str(audit)]) == 0

        corpus, predictions = load_corpus(corpus_path), load_predictions(preds_path)
        lexicons = (default_negation_lexicon(), default_speculation_lexicon())
        texts = {text_id: corpus.by_id[text_id].text for text_id in predictions.entries}
        scopes = {
            text_id: detect(text, lexicons, DEFAULT_WINDOW) for text_id, text in texts.items()
        }
        assert scopes["f1"] and scopes["f4"] and not predictions.entries["f1"]
        reports = {
            text_id: filter_by_scopes(EntitySet(text_id, spans), scopes[text_id])
            for text_id, spans in predictions.entries.items()
        }
        assert load_predictions(out).entries == {
            text_id: report.kept.spans for text_id, report in reports.items()
        }
        rows = sorted(
            (text_id, format_spans([d.span]), d.phenomenon.value, format_spans([d.scope.span]),
             texts[text_id].content[d.scope.trigger.span.start : d.scope.trigger.span.end])
            for text_id, report in reports.items()
            for d in report.discarded
        )
        assert rows == [("f3", "3:9", "negation", "3:17", "no")]
        assert audit.read_text(encoding="utf-8").splitlines() == [
            AUDIT_HEADER, *("\t".join(map(escape_tsv, row)) for row in rows)
        ]


class TestEvaluate:
    def evaluate(self, tmp_path, corpus, preds, *extra):
        out = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--predictions",
                str(preds),
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_report_matches_tally(
        self, tmp_path, capsys, e2e_corpus_path, preds_path, e2e_tally
    ):
        code, out = self.evaluate(tmp_path, e2e_corpus_path, preds_path)
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        expected = e2e_tally["unfiltered"]
        assert payload["counts"] == expected["counts"]
        assert payload["fp_by_class"] == expected["fp_by_class"]
        stdout = capsys.readouterr().out
        assert "precision=" in stdout
        assert f"fp={expected['counts']['fp']}" in stdout

    def test_verbose_embeds_samples(self, tmp_path, e2e_corpus_path, preds_path):
        code, out = self.evaluate(
            tmp_path, e2e_corpus_path, preds_path, "--verbose"
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert {row["id"] for row in payload["samples"]} == E2E_IDS

    def test_samples_without_spans_are_not_matched(self, tmp_path, monkeypatch, sparse_paths):
        corpus_path, preds_path = sparse_paths
        matched = []

        def counting(gold, predicted):
            matched.append((gold, predicted))
            return match_spans(gold, predicted)

        monkeypatch.setattr("adescope.metrics.match_spans", counting)
        code, out = self.evaluate(tmp_path, corpus_path, preds_path, "--verbose")
        assert code == 0
        corpus, predictions = load_corpus(corpus_path), load_predictions(preds_path)
        assert matched == [
            (sample.gold_spans, predictions.entries.get(sample.text.id, ()))
            for sample in corpus.samples
            if sample.text.id in ("f2", "f3")
        ]
        rows = json.loads(out.read_text(encoding="utf-8"))["samples"]
        assert rows == [
            {
                "id": sample.text.id,
                "class": sample.sample_class.value,
                "outcomes": [
                    {
                        "kind": outcome.kind.value,
                        "gold": outcome.gold and list(outcome.gold),
                        "predicted": outcome.predicted and list(outcome.predicted),
                    }
                    for outcome in match_spans(
                        sample.gold_spans, predictions.spans_for(sample.text.id)
                    )
                ],
            }
            for sample in corpus.samples
        ]
        assert [len(row["outcomes"]) for row in rows] == [0, 1, 2, 0]


class TestCompose:
    def write_corpus_file(self, path, *rows):
        path.write_text(
            "\n".join([CORPUS_HEADER, *rows]) + "\n", encoding="utf-8"
        )
        return path

    def test_compose_happy_path(self, tmp_path):
        base = self.write_corpus_file(
            tmp_path / "base.tsv",
            "a1\tbad headaches again\tA\t4:13",
            "x1\tnothing to report\tX\t",
        )
        n_pool = self.write_corpus_file(tmp_path / "n.tsv", "n1\tno rash here\tN\t")
        s_pool = self.write_corpus_file(tmp_path / "s.tsv", "s1\tmaybe a rash\tS\t")
        out = tmp_path / "train.tsv"
        code = main(
            [
                "compose",
                "--base",
                str(base),
                "--n-pool",
                str(n_pool),
                "--s-pool",
                str(s_pool),
                "--add-n",
                "--add-s",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert [s.text.id for s in load_corpus(out).samples] == ["a1", "x1", "n1", "s1"]

    def test_add_flag_without_pool_is_usage_error(self, tmp_path, capsys):
        base = self.write_corpus_file(tmp_path / "base.tsv", "x1\tall quiet\tX\t")
        out = tmp_path / "o.tsv"
        for add_flag, pool_flag in (("--add-n", "--n-pool"), ("--add-s", "--s-pool")):
            assert main(["compose", "--base", str(base), add_flag, "--out", str(out)]) == 1
            expected = f"adescope: error: {pool_flag} is required with {add_flag}\n"
            assert capsys.readouterr().err == expected
            assert not out.exists()

    @pytest.mark.parametrize(
        "pool_flag,add_flag,row",
        [("--n-pool", "--add-n", "n1\tno rash here\tN\t"),
         ("--s-pool", "--add-s", "s1\tmaybe a rash\tS\t")],
        ids=["n-pool", "s-pool"],
    )
    def test_a_pool_without_its_add_flag_is_usage_error(
        self, tmp_path, capsys, pool_flag, add_flag, row
    ):
        """A pool given without its add flag would be read and then dropped."""
        base = self.write_corpus_file(tmp_path / "base.tsv", "x1\tall quiet\tX\t")
        pool = self.write_corpus_file(tmp_path / "pool.tsv", row)
        out = tmp_path / "o.tsv"
        argv = ["compose", "--base", str(base), pool_flag, str(pool), "--out", str(out)]
        assert main(argv) == 1
        expected = f"adescope: error: {add_flag} is required with {pool_flag}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


class TestPrefilter:
    @pytest.mark.parametrize(
        "phenomena,expected",
        [
            ("neg", {"s04", "s05", "s06", "s12"}),
            ("spec", {"s07", "s08", "s09"}),
            ("neg+spec", {"s04", "s05", "s06", "s07", "s08", "s09", "s12"}),
        ],
    )
    def test_keeps_cue_bearing_samples(
        self, tmp_path, e2e_corpus_path, phenomena, expected
    ):
        out = tmp_path / "kept.tsv"
        code = main(
            [
                "prefilter",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(out),
                "--phenomena",
                phenomena,
            ]
        )
        assert code == 0
        assert {s.text.id for s in load_corpus(out).samples} == expected


@pytest.mark.parametrize("command", ["prefilter", "filter"])
def test_an_output_of_no_lines_is_one_newline(tmp_path, command):
    """prefilter keeping no sample of a JSON-lines corpus, and filter given a
    prediction file with no header and no row, write no line: the output is
    exactly one newline, as a file of lines joined by newlines ends with one."""
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text(
        '{"id": "q1", "text": "all quiet today", "class": "X", "spans": []}\n', encoding="utf-8"
    )
    tsv = tmp_path / "corpus.tsv"
    tsv.write_text(f"{CORPUS_HEADER}\nq1\tall quiet today\tX\t\n", encoding="utf-8")
    empty = tmp_path / "empty.preds.tsv"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "prefilter": ["prefilter", "--corpus", str(jsonl), "--format", "jsonl"],
        "filter": ["filter", "--corpus", str(tsv), "--predictions", str(empty)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == b"\n"


class TestExitCodes:
    def test_missing_corpus_file_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "extract",
                "--corpus",
                str(tmp_path / "nowhere.tsv"),
                "--out",
                str(tmp_path / "o.tsv"),
            ]
        )
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    def test_unparseable_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a header\n", encoding="utf-8")
        code = main(
            ["extract", "--corpus", str(bad), "--out", str(tmp_path / "o.tsv")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_prediction_ids_are_data_errors(
        self, tmp_path, e2e_corpus_path, capsys
    ):
        preds = tmp_path / "preds.tsv"
        preds.write_text("ghost\t0:4\n", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--corpus",
                str(e2e_corpus_path),
                "--predictions",
                str(preds),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_bad_flags_exit_one(self, tmp_path, e2e_corpus_path, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1
        assert (
            main(
                [
                    "filter",
                    "--corpus",
                    str(e2e_corpus_path),
                    "--predictions",
                    str(tmp_path / "p.tsv"),
                    "--out",
                    str(tmp_path / "o.tsv"),
                    "--filters",
                    "everything",
                ]
            )
            == 1
        )
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [("--window", "0"), ("--jobs", "0")])
    def test_invalid_settings_exit_one(
        self, tmp_path, e2e_corpus_path, capsys, flag, value
    ):
        argv = [
            "detect",
            "--corpus",
            str(e2e_corpus_path),
            "--phenomenon",
            "neg",
            "--out",
            str(tmp_path / "o.tsv"),
            flag,
            value,
        ]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_unknown_config_keys_are_data_errors(
        self, tmp_path, e2e_corpus_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text('{"windw": 3}', encoding="utf-8")
        code = main(
            [
                "extract",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(tmp_path / "o.tsv"),
                "--config",
                str(config),
            ]
        )
        assert code == 2
        assert "windw" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [{"window": "5"}, {"jobs": True}, {"window": 2.5}, {"filters": 1}, {"ade_lexicon": 7}],
        ids=["window-string", "jobs-bool", "window-float", "filters-int", "lexicon-int"],
    )
    def test_mistyped_config_values_are_data_errors(
        self, tmp_path, e2e_corpus_path, capsys, setting
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting), encoding="utf-8")
        code = main(
            [
                "extract",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(tmp_path / "o.tsv"),
                "--config",
                str(config),
            ]
        )
        assert code == 2
        (key,) = setting
        assert f"{config}: {key}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,setting",
        [
            (["detect", "--phenomenon", "neg", "--config", "{config}"], "negation_lexicon"),
            (["extract", "--config", "{config}"], "ade_lexicon"),
            (["detect", "--phenomenon", "spec", "--lexicon", "{missing}"], "speculation_lexicon"),
        ],
        ids=["config-negation", "config-ade", "detect-spec-lexicon"],
    )
    def test_missing_lexicon_names_its_setting(
        self, tmp_path, e2e_corpus_path, capsys, args, setting
    ):
        missing = tmp_path / "missing.txt"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({setting: str(missing)}), encoding="utf-8")
        argv = [arg.format(config=config, missing=missing) for arg in args]
        out = tmp_path / "o.tsv"
        assert main([*argv, "--corpus", str(e2e_corpus_path), "--out", str(out)]) == 1
        expected = f"adescope: error: {setting}: file not found: {missing}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "args,setting",
        [
            (["extract", "--ade-lexicon", ""], "ade_lexicon"),
            (["detect", "--phenomenon", "neg", "--lexicon", ""], "negation_lexicon"),
            (["prefilter", "--spec-lexicon", ""], "speculation_lexicon"),
            (["extract", "--config", "{config}"], "ade_lexicon"),
            (["detect", "--phenomenon", "spec", "--config", "{config}"], "speculation_lexicon"),
            (["prefilter", "--config", "{config}"], "negation_lexicon"),
        ],
        ids=["extract-flag", "detect-flag", "prefilter-flag",
             "config-ade", "config-speculation", "config-negation"],
    )
    def test_an_empty_lexicon_path_names_its_setting(
        self, tmp_path, e2e_corpus_path, capsys, args, setting
    ):
        """An empty path names no file: it does not select the bundled lexicon."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({setting: ""}), encoding="utf-8")
        argv = [arg.format(config=config) for arg in args]
        out = tmp_path / "o.tsv"
        assert main([*argv, "--corpus", str(e2e_corpus_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"adescope: error: {setting}: file not found: ''\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,name",
        [
            (["extract", "--corpus", "{long}", "--out", "{tmp}/o.tsv"], "--corpus"),
            (["detect", "--phenomenon", "neg", "--config", "{config}", "--corpus", "{corpus}",
              "--out", "{tmp}/o.tsv"], "negation_lexicon"),
            (["extract", "--corpus", "{corpus}", "--out", "{tmp}/{dir}/o.tsv"], "--out"),
        ],
        ids=["corpus", "config-negation", "out-directory"],
    )
    def test_path_too_long_is_a_short_usage_error(
        self, tmp_path, e2e_corpus_path, capsys, args, name
    ):
        long = "x" * 5000
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"negation_lexicon": long}), encoding="utf-8")
        argv = [arg.format(long=long, config=config, corpus=e2e_corpus_path, tmp=tmp_path,
                           dir="d" * 300) for arg in args]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"adescope: error: {name}: File name too long: ")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err) < 300

    @pytest.mark.parametrize(
        "flag,message",
        [("--corpus", "file not found"), ("--out", "directory not found")],
    )
    def test_long_missing_path_is_shown_cut(
        self, tmp_path, e2e_corpus_path, capsys, monkeypatch, flag, message
    ):
        # 3,801 characters of short components: under the OS path limit, so
        # the path is merely missing and no OSError names it.
        monkeypatch.chdir(tmp_path)
        paths = {"--corpus": str(e2e_corpus_path), "--out": "o.tsv", flag: "a/" * 1900 + "x"}
        assert main(["extract", *(item for pair in paths.items() for item in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"adescope: error: {flag}: {message}: a/a/")
        assert captured.err.count("\n") == 1 and len(captured.err) <= 300
        assert captured.err.endswith("…\n")

    def test_undecodable_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(f"{CORPUS_HEADER}\nx1\tcaf\xe9\tX\t\n".encode("latin-1"))
        code = main(["extract", "--corpus", str(bad), "--out", str(tmp_path / "o.tsv")])
        assert code == 2
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, e2e_corpus_path):
        code = main(
            [
                "extract",
                "--corpus",
                str(e2e_corpus_path),
                "--out",
                str(tmp_path / "o.tsv"),
                "--config",
                str(tmp_path / "none.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [["extract"], ["detect", "--phenomenon", "neg"], ["prefilter"]],
        ids=["extract", "detect", "prefilter"],
    )
    def test_an_empty_config_path_is_usage_error(
        self, tmp_path, e2e_corpus_path, capsys, args
    ):
        """An empty --config names no file: it does not mean the defaults."""
        out = tmp_path / "o.tsv"
        argv = [*args, "--corpus", str(e2e_corpus_path), "--config", "", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "adescope: error: --config: file not found: ''\n"
        assert not out.exists()

    def test_a_config_that_is_not_an_object_is_a_data_error(
        self, tmp_path, e2e_corpus_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text("[]\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        argv = ["extract", "--corpus", str(e2e_corpus_path), "--config", str(config)]
        assert main([*argv, "--out", str(out)]) == 2
        expected = f"adescope: error: {config}: config must be a JSON object\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


    def test_evaluate_takes_no_jobs(self, tmp_path, e2e_corpus_path, preds_path, capsys):
        argv = ["evaluate", "--corpus", str(e2e_corpus_path), "--predictions", str(preds_path)]
        assert main([*argv, "--out", str(tmp_path / "r.json"), "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, outputs",
        [
            ("filter", "--audit", {"--out": "f.tsv", "--audit": "nodir/a.tsv"}),
            ("filter", "--out", {"--out": "nodir/f.tsv"}),
            ("evaluate", "--out", {"--out": "nodir/r.json"}),
        ],
    )
    def test_missing_output_directory_is_usage_error_before_any_write(
        self, tmp_path, e2e_corpus_path, preds_path, capsys, command, flag, outputs
    ):
        argv = [command, "--corpus", str(e2e_corpus_path), "--predictions", str(preds_path)]
        for name, path in outputs.items():
            argv += [name, str(tmp_path / path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        expected = f"adescope: error: {flag}: directory not found: {tmp_path / 'nodir'}\n"
        assert (captured.out, captured.err) == ("", expected)
        assert list(tmp_path.iterdir()) == []

    def test_audit_naming_the_out_file_is_a_usage_error(
        self, tmp_path, e2e_corpus_path, preds_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["filter", "--corpus", str(e2e_corpus_path), "--predictions", str(preds_path),
                "--out", "same.tsv", "--audit", str(tmp_path / "same.tsv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"adescope: error: --audit and --out name the same file: {tmp_path / 'same.tsv'}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_an_id_no_prediction_file_holds_exits_two_unwritten(self, tmp_path, capsys):
        corpus = tmp_path / "cr.jsonl"
        corpus.write_text(
            '{"id": "a\\rb", "text": "i have a headache", "class": "X", "spans": []}\n',
            encoding="utf-8",
        )
        out = tmp_path / "preds.tsv"
        assert main(["extract", "--corpus", str(corpus), "--format", "jsonl",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {corpus}:1: text id 'a\\rb' must be non-blank, "
            "hold no tab, newline or carriage return, and not start with '#' or U+FEFF\n"
        )
        assert list(tmp_path.iterdir()) == [corpus]

    def test_unwritable_audit_leaves_out_unwritten(
        self, tmp_path, e2e_corpus_path, preds_path, capsys
    ):
        audit = tmp_path / "adir"
        audit.mkdir()
        out = tmp_path / "f.tsv"
        argv = ["filter", "--corpus", str(e2e_corpus_path), "--predictions", str(preds_path),
                "--out", str(out), "--audit", str(audit)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"adescope: error: [Errno 21] Is a directory: '{audit}'\n"
        assert list(tmp_path.iterdir()) == [audit]
        assert list(audit.iterdir()) == []

        out.write_text("old\n", encoding="utf-8")
        assert main(argv) == 2
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(tmp_path.iterdir()) == [audit, out]

    def test_symlinked_out_is_written_through(self, tmp_path, e2e_corpus_path, capfd):
        """/dev/stdout is a symlink: the scopes go to standard output."""
        code = main(["detect", "--corpus", str(e2e_corpus_path), "--phenomenon", "neg",
                     "--out", "/dev/stdout"])
        assert code == 0
        out = capfd.readouterr().out
        assert out.startswith(DETECT_HEADER + "\n")
        assert out.count("\n") > 1


# A fault on a known line of each line-based input: the file's name and
# content, the faulty line, the message, and the subcommand that reads the
# file ("{bad}" stands for it, "{corpus}" for a valid corpus).
LINE_FAULTS = {
    "tsv-row": (
        "c.tsv", f"{CORPUS_HEADER}\nx1\tall quiet\tX\t\n#1\ti have a headache\tX\t\n", 3,
        "text id '#1' must be non-blank, hold no tab, newline or carriage return, "
        "and not start with '#' or U+FEFF",
        ["extract", "--corpus", "{bad}"],
    ),
    "jsonl-row": (
        "c.jsonl",
        '{"id": "x1", "text": "all quiet", "class": "X", "spans": []}\n'
        '{"id": "a1", "text": "a headache", "class": "B", "spans": []}\n',
        2, "unknown class 'B'",
        ["extract", "--corpus", "{bad}", "--format", "jsonl"],
    ),
    "prediction-row": (
        "p.tsv", "# model: m\ns01\t0:4\ns02\t3:2\n", 3, "invalid span [3, 2)",
        ["evaluate", "--corpus", "{corpus}", "--predictions", "{bad}"],
    ),
    "cue-lexicon": (
        "neg.txt", "# cues\nnot|pre_trigger\nnot|pre_trigger\n", 3,
        "duplicate lexicon entry 'not': an earlier entry has the match keys 'not'",
        ["detect", "--corpus", "{corpus}", "--phenomenon", "neg", "--lexicon", "{bad}"],
    ),
    "term-list": (
        "terms.txt", "# terms\nheadache\nHeadache\n", 3,
        "duplicate lexicon entry 'Headache': an earlier entry has the match keys 'headache'",
        ["extract", "--corpus", "{corpus}", "--ade-lexicon", "{bad}"],
    ),
    "config": (
        "cfg.json", '{\n  "window": 5,\n  "filters": ,\n  "jobs": 1\n}\n', 3,
        "invalid JSON (Expecting value)",
        ["extract", "--corpus", "{corpus}", "--config", "{bad}"],
    ),
}


class TestDataErrorsNameTheirFiles:
    """Every data error (exit 2) names the file at fault; JSON faults included."""

    @pytest.mark.parametrize("fault", LINE_FAULTS)
    def test_a_line_fault_names_its_file_and_line(self, tmp_path, e2e_corpus_path, capsys, fault):
        name, content, line, message, argv = LINE_FAULTS[fault]
        bad = tmp_path / name
        bad.write_text(content, encoding="utf-8")
        argv = [arg.format(bad=bad, corpus=e2e_corpus_path) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"adescope: error: {bad}:{line}: {message}"]
        assert "(id " not in err

    @pytest.mark.parametrize(
        "kind,content",
        [
            ("config", "[" * 100_000),
            ("config", '{"window": 1' + "0" * 5000 + "}"),
            ("jsonl", "[" * 100_000),
            ("jsonl", '{"id": "a", "text": "ab", "class": "A", "spans": [[0, 1' + "0" * 5000 + "]]}"),
        ],
        ids=["config-deep", "config-huge-int", "jsonl-deep", "jsonl-huge-span"],
    )
    def test_json_faults_exit_two(self, tmp_path, e2e_corpus_path, capsys, kind, content):
        bad = tmp_path / f"bad.{kind}"
        bad.write_text(content + "\n", encoding="utf-8")
        out = str(tmp_path / "o.tsv")
        if kind == "config":
            argv = ["prefilter", "--corpus", str(e2e_corpus_path), "--config", str(bad)]
            where = f"{bad}: invalid JSON ("
        else:
            argv = ["prefilter", "--corpus", str(bad), "--format", "jsonl"]
            where = f"{bad}:1"
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert where in err
        # On a Python without an integer digit limit the huge span is
        # well-formed JSON and fails the text-length check instead.
        assert "invalid JSON (" in err or "exceeds text length" in err
        assert "sys." not in err

    @pytest.mark.parametrize(
        "name,row,shown",
        [
            ("hash.tsv", "#1\ti have a headache\tX\t", "'#1'"),
            ("blank.tsv", "  \ti have a headache\tX\t", "'  '"),
            ("tab.jsonl", json.dumps({"id": "a\tb", "text": "i have a headache",
                                      "class": "X", "spans": []}), "'a\\tb'"),
        ],
        ids=["hash-tsv", "blank-tsv", "tab-jsonl"],
    )
    @pytest.mark.parametrize(
        "command", ["extract", "detect", "filter", "evaluate", "prefilter", "compose"]
    )
    def test_an_unholdable_id_is_refused_at_load(self, tmp_path, capsys, command, name, row, shown):
        corpus = tmp_path / name
        jsonl = name.endswith(".jsonl")
        lines = [row] if jsonl else [CORPUS_HEADER, row]
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        preds.write_text("# model: m\n", encoding="utf-8")
        args = {
            "extract": [],
            "detect": ["--phenomenon", "neg"],
            "filter": ["--predictions", str(preds)],
            "evaluate": ["--predictions", str(preds)],
            "prefilter": [],
            "compose": [],
        }[command]
        source = "--base" if command == "compose" else "--corpus"
        argv = [command, source, str(corpus), "--format", "jsonl" if jsonl else "tsv", *args]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        line = 1 if jsonl else 2
        assert capsys.readouterr().err == (
            f"adescope: error: {corpus}:{line}: text id {shown} must be non-blank, "
            "hold no tab, newline or carriage return, and not start with '#' or U+FEFF\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([corpus, preds])

    def run_evaluate(self, tmp_path, corpus, rows):
        preds = tmp_path / "preds.tsv"
        preds.write_text(rows, encoding="utf-8")
        argv = ["evaluate", "--corpus", str(corpus), "--predictions", str(preds)]
        return preds, main([*argv, "--out", str(tmp_path / "r.json")])

    def test_unknown_ids_name_both_files(self, tmp_path, e2e_corpus_path, capsys):
        preds, code = self.run_evaluate(tmp_path, e2e_corpus_path, "zzz\t0:4\n")
        assert code == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {preds} against {e2e_corpus_path}: "
            "predictions reference unknown text ids: zzz\n"
        )

    def test_many_unknown_ids_are_listed_up_to_five(self, tmp_path, e2e_corpus_path, capsys):
        rows = "".join(f"zz{i:04d}\t0:4\n" for i in range(5400))
        preds, code = self.run_evaluate(tmp_path, e2e_corpus_path, rows)
        assert code == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {preds} against {e2e_corpus_path}: predictions reference "
            "unknown text ids: zz0000, zz0001, zz0002, zz0003, zz0004 and 5395 more\n"
        )

    def test_spans_past_the_text_name_both_files(self, tmp_path, e2e_corpus_path, capsys):
        preds, code = self.run_evaluate(tmp_path, e2e_corpus_path, "s04\t0:9999\n")
        assert code == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {preds} against {e2e_corpus_path}: "
            "prediction for 's04': span [0, 9999) exceeds text length 45\n"
        )

    def test_duplicate_ade_term_names_the_term_list(self, tmp_path, e2e_corpus_path, capsys):
        terms = tmp_path / "terms.txt"
        terms.write_text("# terms\nheadache\nHeadache\n", encoding="utf-8")
        argv = ["extract", "--corpus", str(e2e_corpus_path), "--ade-lexicon", str(terms)]
        assert main([*argv, "--out", str(tmp_path / "p.tsv")]) == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {terms}:3: duplicate lexicon entry 'Headache': "
            "an earlier entry has the match keys 'headache'\n"
        )

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "setting,args,content,shown,keys",
        [
            ("ade_lexicon", ["extract"], "skin rash\nskin #rash\n", "skin #rash", "skin rash"),
            ("ade_lexicon", ["extract"], "can't\nCAN’T\n", "CAN’T", "can't"),
            (
                "negation_lexicon", ["detect", "--phenomenon", "neg"],
                "no doubt|pseudo_trigger\nno doubt|pre_trigger\n", "no doubt", "no doubt",
            ),
        ],
        ids=["hashtag-term", "curly-apostrophe-term", "pseudo-and-pre-cue"],
    )
    def test_entries_keyed_alike_are_refused_at_their_line(
        self, tmp_path, e2e_corpus_path, capsys, via, setting, args, content, shown, keys
    ):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(f"# entries\n{content}", encoding="utf-8")
        if via == "flag":
            flag = "--ade-lexicon" if setting == "ade_lexicon" else "--lexicon"
            args = [*args, flag, str(lexicon)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({setting: str(lexicon)}), encoding="utf-8")
            args = [*args, "--config", str(config)]
        out = tmp_path / "out.tsv"
        assert main([*args, "--corpus", str(e2e_corpus_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"adescope: error: {lexicon}:3: duplicate lexicon entry {shown!r}: "
            f"an earlier entry has the match keys {keys!r}\n"
        )
        assert not out.exists()


class TestLongConfigValues:
    """A config message echoes at most 40 characters of each value and lists
    at most five unknown keys."""

    def run_with_config(self, tmp_path, e2e_corpus_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["extract", "--corpus", str(e2e_corpus_path), "--config", str(path)]
        code = main([*argv, "--out", str(tmp_path / "o.tsv")])
        return path, code, capsys.readouterr().err

    def test_six_long_unknown_keys(self, tmp_path, e2e_corpus_path, capsys):
        config = {f"{i}{'k' * 100}": 1 for i in range(6)}
        path, code, err = self.run_with_config(tmp_path, e2e_corpus_path, capsys, config)
        assert code == 2
        listed = ", ".join(f"{i}{'k' * 39}…" for i in range(5))
        assert err == f"adescope: error: {path}: unknown config keys: {listed} and 1 more\n"

    @pytest.mark.parametrize(
        "config,code,message",
        [
            (
                {"filters": "neg" * 50},
                1,
                f"--filters must be one of none, neg, spec, neg+spec, got '{('neg' * 14)[:40]}…'",
            ),
            ({"window": "5" * 100}, 2, f"{{path}}: window: expected an integer, got '{'5' * 40}…'"),
            ({"jobs": [1] * 100}, 2, f"{{path}}: jobs: expected an integer, got {str([1] * 14)[:40]}…"),
            ({"window": -(10**60)}, 1, f"--window must be >= 1, got -1{'0' * 38}…"),
            ({"jobs": -(10**60)}, 1, f"--jobs must be >= 1, got -1{'0' * 38}…"),
        ],
        ids=["filters-string", "window-string", "jobs-list", "window-int", "jobs-int"],
    )
    def test_long_values(self, tmp_path, e2e_corpus_path, capsys, config, code, message):
        path, exit_code, err = self.run_with_config(tmp_path, e2e_corpus_path, capsys, config)
        assert exit_code == code
        assert err == f"adescope: error: {message.replace('{path}', str(path))}\n"


class TestJobs:
    @pytest.mark.parametrize("jobs", ["flag", "config"], ids=["jobs-100000", "config-jobs-3"])
    def test_any_job_count_runs_the_serial_path(
        self, tmp_path, e2e_corpus_path, preds_path, monkeypatch, jobs
    ):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 3}), encoding="utf-8")
        corpus = ["--corpus", str(e2e_corpus_path)]
        commands = {
            "extract": ["extract", *corpus],
            "detect": ["detect", *corpus, "--phenomenon", "neg"],
            "filter": ["filter", *corpus, "--predictions", str(preds_path)],
        }
        many = ["--jobs", "100000"] if jobs == "flag" else ["--config", str(config)]
        for name, argv in commands.items():
            outputs = []
            for extra in (["--jobs", "1"], many):
                out = tmp_path / f"{name}-{len(outputs)}.tsv"
                assert main([*argv, "--out", str(out), *extra]) == 0
                written = [out, Path(f"{out}.audit")] if name == "filter" else [out]
                outputs.append([path.read_bytes() for path in written])
            assert outputs[0] == outputs[1], name


class TestEntryPoints:
    def run_module(self, *argv):
        src = Path(adescope.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
        )

    @pytest.mark.parametrize("module", ["adescope", "adescope.cli"])
    def test_module_runs_the_cli_without_warnings(self, tmp_path, e2e_corpus_path, module):
        out = tmp_path / "kept.tsv"
        result = self.run_module(
            "-m", module, "prefilter", "--corpus", str(e2e_corpus_path), "--out", str(out)
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert len(load_corpus(out)) == 7

    def test_package_import_leaves_the_cli_unloaded(self):
        result = self.run_module(
            "-c", "import sys, adescope; print('adescope.cli' in sys.modules)"
        )
        assert result.stdout.strip() == "False"

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        result = self.run_module(
            "-c",
            "import sys, adescope.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])",
        )
        assert (result.returncode, result.stdout.strip()) == (0, "[]")

    def test_import_leaves_dataclasses_and_logging_unloaded(self):
        # They cost about 30 ms of every launch, and importlib.resources,
        # which imports zipfile, tempfile, shutil, bz2 and lzma, about 8 ms
        # more. -S skips site's .pth files, which may import them on some
        # installs.
        src = str(Path(adescope.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; sys.path.insert(0, {src!r}); import adescope, adescope.cli; "
             "print([m for m in ('dataclasses', 'inspect', 'logging', 'importlib.resources') "
             "if m in sys.modules])"],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout.strip()) == (0, "[]")


class TestCollector:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        """Start with the cyclic collector on or off; restore it afterwards."""
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize(
        "corpus,out,code",
        [("e2e", "p.tsv", 0), ("e2e", "missing/p.tsv", 1), ("bad.tsv", "p.tsv", 2)],
        ids=["ok", "usage-error", "data-error"],
    )
    def test_main_leaves_the_collector_as_it_found_it(
        self, tmp_path, e2e_corpus_path, capsys, monkeypatch, collecting, corpus, out, code
    ):
        (tmp_path / "bad.tsv").write_text("not a header\n", encoding="utf-8")
        corpus = e2e_corpus_path if corpus == "e2e" else tmp_path / corpus
        paused = []
        resolve = adescope.cli._resolve_settings

        def resolve_and_record(args):
            paused.append(not gc.isenabled())
            return resolve(args)

        monkeypatch.setattr(adescope.cli, "_resolve_settings", resolve_and_record)
        argv = ["extract", "--corpus", str(corpus), "--out", str(tmp_path / out)]
        assert main(argv) == code
        capsys.readouterr()
        assert gc.isenabled() is collecting
        assert all(paused)
