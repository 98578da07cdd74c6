"""Tiny-scale smoke test of the benchmark itself; runs in about a minute.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs at a tenth of its size, traced and untraced. The run must
pass every output check (serial reference, digests of earlier runs, the
README tally or the in-process evaluation) and report every metric that
BENCHMARK.json declares, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESIGN = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_reported_and_checks_pass(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "short_posts", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_design_cites_declared_names_and_true_sizes(tmp_path):
    sys.path.insert(0, str(BENCH))
    import workloads

    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for row in DESIGN["interactions"] + DESIGN["no_change"]:
        assert set(row["layer"]) <= layer
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) <= names
    for name, record in DESIGN["workloads"].items():
        out = tmp_path / name
        out.mkdir()
        wl = workloads.generate(name, record["seeds"][0], 1.0, ROOT / "data" / "corpus", out)
        assert record["size"] == {"samples": wl.samples, "tokens": wl.tokens, "bytes": wl.bytes}
