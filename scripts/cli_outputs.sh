#!/usr/bin/env bash
# Run the README's command-line chain, plus extract, detect and filter
# with --jobs 2, and extract and prefilter on the corpus written as JSON
# lines, with the adescope package found in SRC and keep everything it
# produces in OUT: each output file (the JSON-lines corpus too), each
# command's stdout and stderr, and its exit code. Runs on small inputs
# written into OUT follow: a header-only corpus (a logged warning), a
# malformed row, a prediction for an unknown id, detect and filter on a
# speculation cue matched across a line break (escaped TSV fields), an id
# no prediction file can hold and an --audit naming the --out file.
#
#   scripts/cli_outputs.sh SRC OUT [CORPUS]
#
# CORPUS defaults to data/corpus/test.tsv; compose always reads the bundled
# train base and pools. Two source trees behave the same on the command
# line when `diff -r` finds no difference between their OUT directories.
# Exits 1 when any subcommand but the error-path runs exited non-zero.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 SRC OUT [CORPUS]" >&2
    exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
src=$(cd "$1" && pwd)
out=$2
corpus=${3:-$root/data/corpus/test.tsv}
pools=$root/data/corpus
mkdir -p "$out"

status=0
record() {  # record NAME COMMAND...
    local name=$1
    shift
    PYTHONPATH=$src "$@" >"$out/$name.stdout" 2>"$out/$name.stderr"
    local code=$?
    echo "$code" >"$out/$name.exit"
    [ "$code" -eq 0 ] || status=1
}
run() {  # run NAME SUBCOMMAND ARGS...
    local name=$1
    shift
    record "$name" python3 -m adescope "$@"
}

run extract extract --corpus "$corpus" --out "$out/preds.tsv"
run detect-neg detect --corpus "$corpus" --phenomenon neg --out "$out/scopes-neg.tsv"
run detect-spec detect --corpus "$corpus" --phenomenon spec --out "$out/scopes-spec.tsv"
run filter filter --corpus "$corpus" --predictions "$out/preds.tsv" \
    --filters neg+spec --out "$out/preds.filtered.tsv" --audit "$out/audit.tsv"
# The same three subcommands with --jobs 2, into their own names.
run extract-j2 extract --corpus "$corpus" --out "$out/preds-j2.tsv" --jobs 2
run detect-neg-j2 detect --corpus "$corpus" --phenomenon neg \
    --out "$out/scopes-neg-j2.tsv" --jobs 2
run filter-j2 filter --corpus "$corpus" --predictions "$out/preds.tsv" \
    --filters neg+spec --out "$out/preds-j2.filtered.tsv" --audit "$out/audit-j2.tsv" --jobs 2
run evaluate evaluate --corpus "$corpus" --predictions "$out/preds.filtered.tsv" \
    --out "$out/report.json" --verbose
run prefilter prefilter --corpus "$corpus" --phenomena neg+spec --out "$out/kept.tsv"
run compose compose --base "$pools/train_base.tsv" \
    --n-pool "$pools/train_n_pool.tsv" --s-pool "$pools/train_s_pool.tsv" \
    --add-n --add-s --out "$out/train.tsv"
# The corpus as JSON lines, written by the package in SRC, and the
# subcommands that read and write that format.
record to-jsonl python3 -c 'import sys; from adescope import load_corpus, write_corpus
write_corpus(load_corpus(sys.argv[1]), sys.argv[2], format="jsonl")' "$corpus" "$out/corpus.jsonl"
run extract-jsonl extract --corpus "$out/corpus.jsonl" --format jsonl --out "$out/preds-jsonl.tsv"
run prefilter-jsonl prefilter --corpus "$out/corpus.jsonl" --format jsonl \
    --phenomena neg+spec --out "$out/kept.jsonl"
# Error paths, run inside OUT on relative names so that no message names
# OUT. Their exit codes are recorded but leave the script's status alone.
fault() {  # fault NAME SUBCOMMAND ARGS...
    local name=$1
    shift
    (cd "$out" && PYTHONPATH=$src python3 -m adescope "$@" >"$name.stdout" 2>"$name.stderr"
        echo "$?" >"$name.exit")
}
printf 'id\ttext\tclass\tspans\n' >"$out/header-only.tsv"
printf 'id\ttext\tclass\tspans\nx1\tall quiet\tX\n' >"$out/bad-row.tsv"
printf 'id\ttext\tclass\tspans\nx1\tall quiet\tX\t\n' >"$out/one.tsv"
printf '# model: m\nnope\t0:3\n' >"$out/unknown-id.tsv"
fault header-only extract --corpus header-only.tsv --out header-only.preds.tsv
fault bad-row extract --corpus bad-row.tsv --out bad-row.preds.tsv
fault unknown-id evaluate --corpus one.tsv --predictions unknown-id.tsv --out unknown-id.json
printf 'id\ttext\tclass\tspans\ns1\ti am not\\nsure it is a headache\tS\t\n' >"$out/cue-break.tsv"
printf '# model: m\ns1\t21:29\n' >"$out/cue-break.preds.tsv"
printf '{"id": "a\\rb", "text": "i have a headache", "class": "X", "spans": []}\n' >"$out/cr-id.jsonl"
fault cue-break-detect detect --corpus cue-break.tsv --phenomenon spec \
    --out cue-break.scopes.tsv
fault cue-break-filter filter --corpus cue-break.tsv --predictions cue-break.preds.tsv \
    --filters spec --out cue-break.filtered.tsv --audit cue-break.audit.tsv
fault cr-id extract --corpus cr-id.jsonl --format jsonl --out cr-id.preds.tsv
fault same-audit filter --corpus cue-break.tsv --predictions cue-break.preds.tsv \
    --out same.tsv --audit same.tsv
exit "$status"
