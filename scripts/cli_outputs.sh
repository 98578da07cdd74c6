#!/usr/bin/env bash
# Run the README's command-line chain, plus extract, detect and filter
# with --jobs 2, with the adescope package found in SRC and keep everything
# it produces in OUT: each output file, each subcommand's stdout and
# stderr, and its exit code.
#
#   scripts/cli_outputs.sh SRC OUT [CORPUS]
#
# CORPUS defaults to data/corpus/test.tsv; compose always reads the bundled
# train base and pools. Two source trees behave the same on the command
# line when `diff -r` finds no difference between their OUT directories.
# Exits 1 when any subcommand exited non-zero.
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
run() {
    local name=$1
    shift
    PYTHONPATH=$src python3 -m adescope "$@" >"$out/$name.stdout" 2>"$out/$name.stderr"
    local code=$?
    echo "$code" >"$out/$name.exit"
    [ "$code" -eq 0 ] || status=1
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
exit "$status"
