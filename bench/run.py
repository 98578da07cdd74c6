#!/usr/bin/env python3
"""Batch benchmark of the adescope CLI pipeline, end to end and by layer.

    python3 bench/run.py --workload short_posts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, traced and untraced

Generates the workload's inputs from ``data/corpus/`` and the seed, then
runs the CLI chain extract -> detect (neg, spec) -> filter (neg+spec) ->
evaluate -> prefilter -> compose, each subcommand as ``adescope.cli.main``
in a fresh interpreter, again and again for ``--seconds``. Every run starts
with one serial pass whose outputs are the reference: every later pass must
reproduce them byte for byte (so ``--jobs 2`` output equals serial output),
and so must any earlier run of the same inputs and sources in this
checkout. Evaluate counts are checked against the README row (short posts)
or an in-process evaluation (long posts).

``--trace 0`` prints the end-to-end metrics: medians over passes of each
subcommand's wall time, their sum, token throughput, the start-up cost of a
fresh interpreter that builds the default lexicons, and peak child RSS.
``--trace 1`` also runs the chain in-process, untraced and traced (see
``layers.py``), and prints per-layer self times, counts and CLI overheads.

Times are reported in reference seconds. The speed of a shared machine can
drift by a factor of two within a minute, and a subcommand's wall time
drifts with it. So a probe, a fresh interpreter doing a fixed slice of
regex and dict work, runs between timed operations, and an operation's
wall time is scaled by ``PROBE_REF_S`` over the mean of the probe times just
before and after it: the time the operation would take on a machine that
runs the probe in ``PROBE_REF_S`` seconds. Changes to the program move the
operation and not the probe, so they show in full. The median probe time
of each run goes to standard error.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (CLI calls and in-process stages that exited non-zero or failed
a check) and ``metrics``. ``--workload all`` runs every workload with and
without tracing and prints a table of every metric first.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "corpus"
WORK = ROOT / ".benchwork"

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 11
SETUPS_PER_PASS = 2
CHILD_TIMEOUT_S = 120
PROBE_REF_S = 0.1

# README row for neg+spec on the bundled test split; k copies give k times it.
README_NEG_SPEC = {"counts": {"tp": 200, "partial": 0, "fp": 12, "fn": 0},
                   "fp_by_class": {"S": 12, "N": 0, "A": 0, "X": 0}}

CLI = "import sys; from adescope.cli import main; sys.exit(main())"
SETUP = (
    "from adescope import RawText, default_ade_lexicon, detect_negation, "
    "detect_speculation, extract\n"
    "text = RawText('setup', 'no headache')\n"
    "extract(text, default_ade_lexicon()); detect_negation(text); detect_speculation(text)\n"
)

OUTPUTS = ("preds.tsv", "neg.tsv", "spec.tsv", "filtered.tsv", "filtered.tsv.audit",
           "report.json", "kept.tsv", "composed.tsv")
LIBRARY_STAGES = ("extract", "detect", "filter", "evaluate")


class CheckFailed(Exception):
    """An operation exited non-zero or produced wrong output."""


class Ledger:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            raise CheckFailed(message)


def _child_env() -> dict:
    # Children start with a bytecode cache, as an installed package does.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(args: list[str], log: Path) -> tuple[float, int, float]:
    """Run the interpreter on ``args``; return wall seconds, exit code, max RSS in MB."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(),
                                stdout=sink, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


PROBE = (
    "import re\n"
    "words = re.compile(r'[#@]?\\w+|[^\\w\\s]')\n"
    "text = 'no headache since i started #metoprolol, maybe nausea?! ' * 40\n"
    "rows = [(i, words.findall(text[i % 50 : i % 50 + 200])) for i in range(1000)]\n"
    "table = {i: len(found) for i, found in rows}\n"
)


def probe() -> float:
    """Wall seconds of a fresh interpreter doing a fixed slice of regex and dict work."""
    wall, code, _ = launch(["-c", PROBE], Path(os.devnull))
    if code != 0:
        raise RuntimeError(f"probe exited {code}")
    return wall


class Clock:
    """Probe times, and the factors they give to reference seconds."""

    def __init__(self) -> None:
        self.probes = [probe()]

    def factor(self) -> float:
        """Reference seconds per wall second for the operation that just ended."""
        self.probes.append(probe())
        return 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload: inputs, work directory and ledger."""

    def __init__(self, name: str, seed: int, scale: float, tmp: Path) -> None:
        self.tmp = tmp
        self.ledger = Ledger()
        inputs = tmp / "inputs"
        inputs.mkdir()
        self.wl = workloads.generate(name, seed, scale, DATA, inputs)
        self.out = tmp / "out"
        self.out.mkdir()
        self.filter_input = inputs / "preds_wide.tsv" if self.wl.widen else self.out / "preds.tsv"
        self.reference: dict[str, str] | None = None
        self.input_digests = {p.name: sha256(p) for p in sorted(inputs.iterdir())}
        self.clock = Clock()

    def cli(self, *args: str) -> tuple[float, float]:
        """Run one subcommand; return its time in reference seconds and max RSS."""
        log = self.tmp / f"{args[0]}.log"
        self.ledger.attempted += 1
        wall, code, rss = launch(["-c", CLI, *args], log)
        seconds = wall * self.clock.factor()
        self.ledger.check(code == 0, f"adescope {' '.join(args)} exited {code}:\n"
                          + log.read_text(errors="replace")[-2000:])
        return seconds, rss

    def cli_chain(self, jobs: int) -> tuple[dict[str, float], float]:
        """One pass of the CLI chain; return reference seconds per stage and peak RSS."""
        wl, out = self.wl, self.out
        corpus = str(wl.corpus)
        par = ["--jobs", str(jobs)] if jobs > 1 else []
        base, n_pool, s_pool = wl.compose
        compose = ["--base", str(base)]
        if n_pool and s_pool:
            compose += ["--n-pool", str(n_pool), "--s-pool", str(s_pool), "--add-n", "--add-s"]
        commands = [
            ("extract", ["extract", "--corpus", corpus, "--out", str(out / "preds.tsv"), *par]),
            ("detect", ["detect", "--corpus", corpus, "--phenomenon", "neg",
                        "--out", str(out / "neg.tsv"), *par]),
            ("detect", ["detect", "--corpus", corpus, "--phenomenon", "spec",
                        "--out", str(out / "spec.tsv"), *par]),
            ("filter", ["filter", "--corpus", corpus, "--predictions", str(self.filter_input),
                        "--filters", "neg+spec", "--out", str(out / "filtered.tsv"), *par]),
            ("evaluate", ["evaluate", "--corpus", corpus, "--predictions",
                          str(out / "filtered.tsv"), "--out", str(out / "report.json")]),
            ("prefilter", ["prefilter", "--corpus", corpus, "--phenomena", "neg+spec",
                           "--out", str(out / "kept.tsv")]),
            ("compose", ["compose", *compose, "--out", str(out / "composed.tsv")]),
        ]
        times = dict.fromkeys([name for name, _ in commands], 0.0)
        peak = 0.0
        for stage, args in commands:
            seconds, rss = self.cli(*args)
            times[stage] += seconds
            peak = max(peak, rss)
            if stage == "extract" and wl.widen and not self.filter_input.exists():
                workloads.widen_predictions(out / "preds.tsv", wl.corpus, self.filter_input)
        self._check_digests()
        return times, peak

    def _check_digests(self) -> None:
        digests = {name: sha256(self.out / name) for name in OUTPUTS}
        if self.reference is None:
            self.reference = digests
            self._check_reference()
        changed = sorted(n for n in OUTPUTS if digests[n] != self.reference[n])
        self.ledger.check(not changed, f"outputs differ from the serial reference: {changed}")

    def _check_reference(self) -> None:
        """Checks made once per run, on the serial reference pass."""
        # layers imports the package under test, so it is imported only once
        # main() has found the package in the checkout.
        from layers import evaluate_file

        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        got = {"counts": report["counts"], "fp_by_class": report["fp_by_class"]}
        if self.wl.replicas is not None:
            k = self.wl.replicas
            want = {part: {key: k * v for key, v in row.items()}
                    for part, row in README_NEG_SPEC.items()}
        else:
            want = evaluate_file(self.wl.corpus, self.out / "filtered.tsv")
        self.ledger.check(got == want, f"evaluate counts {got}, expected {want}")
        self._check_digest_cache()

    def _check_digest_cache(self) -> None:
        """Outputs must match those of any earlier run on the same inputs and sources."""
        sources = sorted(p for p in (SRC / "adescope").rglob("*") if p.is_file()
                         and "__pycache__" not in p.parts)
        key = hashlib.sha256(json.dumps(
            [self.input_digests, {str(p.relative_to(SRC)): sha256(p) for p in sources}],
            sort_keys=True).encode()).hexdigest()
        cache_path = WORK / "digests.json"
        cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
        if key in cache:
            changed = sorted(n for n in OUTPUTS if cache[key].get(n) != self.reference[n])
            self.ledger.check(not changed, f"outputs differ from an earlier run: {changed}")
            return
        cache[key] = self.reference
        staged = cache_path.with_suffix(".tmp")
        staged.write_text(json.dumps(cache, indent=1, sort_keys=True))
        os.replace(staged, cache_path)

    def setup_launch(self) -> float:
        self.ledger.attempted += 1
        wall, code, _ = launch(["-c", SETUP], self.tmp / "setup.log")
        seconds = wall * self.clock.factor()
        self.ledger.check(code == 0, f"setup launch exited {code}")
        return seconds


def _passes(seconds: float):
    """Yield pass numbers: at least MIN_PASSES, and until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < MIN_PASSES or time.perf_counter() < deadline:
        yield count
        count += 1


def measure_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    run.cli_chain(jobs=1)
    passes, setups = [], []
    for _ in _passes(seconds):
        passes.append(run.cli_chain(run.wl.jobs))
        setups += [run.setup_launch() for _ in range(SETUPS_PER_PASS)]
    while len(setups) < MIN_SETUPS:
        setups.append(run.setup_launch())
    pipeline = statistics.median(sum(t.values()) for t, _ in passes)
    metrics = {
        "pipeline_s": pipeline,
        "throughput_tok_s": run.wl.tokens / pipeline,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peak for _, peak in passes),
    }
    for stage in passes[0][0]:
        metrics[f"{stage}_s"] = statistics.median(t[stage] for t, _ in passes)
    return metrics


def _check_library(run: Run, results: dict) -> None:
    from adescope.corpus import load_predictions
    from layers import report_counts

    out, lib = run.out, run.tmp / "lib"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for stage, ok in (
        ("extract", results["extract"].entries == load_predictions(out / "preds.tsv").entries),
        ("filter", results["filter"].entries == load_predictions(out / "filtered.tsv").entries),
        ("evaluate", report_counts(results["evaluate"])
         == {"counts": report["counts"], "fp_by_class": report["fp_by_class"]}),
        ("prefilter", sha256(lib / "kept.tsv") == run.reference["kept.tsv"]),
        ("compose", sha256(lib / "composed.tsv") == run.reference["composed.tsv"]),
    ):
        run.ledger.check(ok, f"in-process {stage} disagrees with the CLI")


def _library_pass(run: Run, tracer) -> tuple[dict[str, float], float]:
    """One in-process pass: reference seconds per stage, and the factor used."""
    from layers import library_chain

    run.ledger.attempted += 1
    # Each in-process pass starts from the same heap: garbage of earlier passes
    # and the benchmark's own objects stay out of its collections.
    gc.collect()
    gc.freeze()
    try:
        times, results = library_chain(run.wl, run.filter_input, run.tmp / "lib", tracer)
    finally:
        gc.unfreeze()
    factor = run.clock.factor()
    _check_library(run, results)
    return {stage: t * factor for stage, t in times.items()}, factor


def measure_layers(run: Run, seconds: float, run_id: str) -> dict[str, float]:
    from layers import LAYERS, Tracer

    (run.tmp / "lib").mkdir()
    run.cli_chain(jobs=1)
    rows = []
    for number in _passes(seconds):
        cli_times, _ = run.cli_chain(run.wl.jobs)
        untraced, _ = _library_pass(run, None)
        tracer = Tracer(f"{run_id}-{number}")
        traced, factor = _library_pass(run, tracer)
        row = {"trace.overhead_frac": sum(traced.values()) / sum(untraced.values()) - 1}
        for stage in LIBRARY_STAGES:
            row[f"cli.{stage}.overhead_s"] = cli_times[stage] - untraced[stage]
        self_times = {name: t * factor for name, t in tracer.self_times().items()
                      if name.split(".")[0] in LAYERS}
        for name, value in self_times.items():
            row[f"{name}_s"] = value
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v for n, v in self_times.items()
                                         if n.startswith(layer + "."))
        row.update(tracer.counts)
        row["scope.cue_hit_ratio"] = row["scope.cue_hits"] / row["scope.cue_scans"]
        rows.append(row)
    (WORK / "trace").mkdir(exist_ok=True)
    tracer.write(WORK / "trace" / f"{run_id}.jsonl")
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as tmp:
        run = Run(name, seed, scale, Path(tmp))
        wl = run.wl
        print(f"{name} seed={seed}: {wl.samples} samples, {wl.tokens} tokens, "
              f"{wl.bytes} bytes", file=sys.stderr)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = declared["per_layer" if trace else "end_to_end"]
        try:
            if trace:
                measured = measure_layers(run, seconds, f"{name}-seed{seed}")
            else:
                measured = measure_end_to_end(run, seconds)
            missing = [m["name"] for m in declared if m["name"] not in measured]
            run.ledger.check(not missing, f"metrics not measured: {missing}")
            metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                       for m in declared}
        except CheckFailed as exc:
            print(f"{name}: check failed: {exc}", file=sys.stderr)
            metrics = {}
        probes = run.clock.probes
        print(f"{name}: probe median {statistics.median(probes):.4f} s over "
              f"{len(probes)} probes (reference {PROBE_REF_S} s)", file=sys.stderr)
    return {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the workload sizes (default 1)")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "adescope" / "cli.py", DATA / "test.tsv") if not p.is_file()]
    if missing:
        print(f"bench: not an adescope checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.scale)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace, args.scale)
            for key in ("attempted", "failed"):
                combined[key] += result[key]
            combined["correct"] &= result["correct"]
            for metric, entry in result["metrics"].items():
                print(f"{name:18} {metric:32} {entry['value']:14.6g} {entry['unit']}")
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
