#!/usr/bin/env bash
# Run the README's command-line chain, plus extract, detect and filter
# with --jobs 2, and extract and prefilter on the corpus written as JSON
# lines, with the adescope package found in SRC and keep everything it
# produces in OUT: each output file (the JSON-lines corpus too), each
# command's stdout and stderr, and its exit code. filter --audit and
# evaluate --verbose then run on a four-row corpus with sparse predictions
# (filter-sparse): cue-bearing texts with empty prediction rows, a text
# absent from the predictions, and one prediction inside a scope and one
# outside, where filter detects no scopes and evaluate matches nothing for
# a text without spans. extract --ade-lexicon, detect --lexicon and
# prefilter --neg-lexicon then run on lexicons that are not bundled
# (user-lexicons): terms sharing first words, one term a prefix of longer
# ones, terms written with a # or a curly apostrophe that posts match
# without either, and triggers that are prefixes of longer pseudo-triggers,
# so the shared matcher is diffed on more than the bundled lexicons.
# extract, detect, filter and prefilter then run on short texts whose
# cues and terms touch the edges of the word check that skips a text
# untokenized (word-gate): #No, @no, no., (not), NOT, don't, x'no, no_way,
# n0, rash_x, #Rash and a cue after a form feed, and texts that are not
# ASCII: ſo, the Kelvin sign, İyi değil, STRAßE, an em dash, a curly
# apostrophe, an emoji sequence and a no-break space. The user lexicons
# hold no_way, n0, İyi and ſo (the check on) and a punctuation-only cue
# (the check off), and term lists hold Rash, rash_x, n0, don't, STRAßE and
# the Kelvin sign (the check on) and a punctuation-only term (the check
# off). prefilter
# --format jsonl keeping no sample, and filter on an empty prediction file
# (no header, no row), then write outputs of no line (empty-outputs).
# compose then runs on a small base and pools, once as TSV and once as JSON
# lines, with samples of all four classes, class A ones holding two or
# three spans out of order, and texts holding a tab, a newline, a backslash
# and a backslash before an n (compose-multispan), so both writers sort and
# join spans and escape text. Runs on small inputs written into OUT
# follow: a header-only corpus (a logged warning), a malformed row, a prediction for an unknown id, detect and
# filter on a speculation cue matched across a line break (escaped TSV
# fields), detect of both phenomena on cue windows that cross a lone
# carriage return, a tab, a … token and a CRLF (the gaps a scope may or
# may not cross), ids no corpus or prediction file can hold (a
# JSON-lines id holding a carriage return, a TSV id starting with # and
# a blank TSV id: each refused at its file and line when the corpus
# loads), an --audit naming the --out file, a cue lexicon that repeats a
# cue, a config with invalid JSON on line 3, a TSV corpus that repeats
# an id on line 3, a prediction file that repeats an id, a term list
# that repeats a term, a term list with "skin rash" then "skin #rash" and
# a cue lexicon with the pseudo-trigger "no doubt" then the pre-trigger
# "no doubt" (entries that key alike: each refused at its file and line),
# and extract with an empty --ade-lexicon path (a missing file, exit 1).
# extract with an empty --config path runs too: it names no file, so it
# exits 1 rather than running with the defaults. Last, compose gets an
# --n-pool but no --add-n, a pool it would read and then drop, and exits 1.
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
# Sparse predictions: f1 and f4 bear cues under empty prediction rows, f2
# has none, and f3 has one prediction inside a negation scope, one outside.
printf 'id\ttext\tclass\tspans\n%b\n%b\n%b\n%b\n' \
    'f1\tno headache today\tN\t' \
    'f2\ti have a headache\tA\t9:17' \
    'f3\tno nausea so far, but this pill gives me a rash\tA\t43:47' \
    'f4\tmaybe the dose is fine\tX\t' >"$out/sparse.tsv"
printf '# model: m\nf1\t\nf3\t3:9;43:47\nf4\t\n' >"$out/sparse.preds.tsv"
run filter-sparse filter --corpus "$out/sparse.tsv" --predictions "$out/sparse.preds.tsv" \
    --out "$out/sparse.filtered.tsv" --audit "$out/sparse.audit.tsv"
run filter-sparse-evaluate evaluate --corpus "$out/sparse.tsv" \
    --predictions "$out/sparse.filtered.tsv" --out "$out/sparse.report.json" --verbose
# User lexicons: "muscle" and "muscle pain" are prefixes of longer terms,
# "skin #rash" and "can’t sleep" key as "skin rash" and "can't sleep", and
# "no" and "not" are prefixes of longer pseudo-triggers.
printf 'id\ttext\tclass\tspans\n%b\n%b\n%b\n%b\n%b\n' \
    'u1\tmy muscle pain in legs is back, muscle pain in arms too\tA\t3:22' \
    'u2\tMuscle ache and a skin #Rash, i can’t sleep\tA\t0:11' \
    'u3\tno doubt the muscle pain is from it\tA\t13:24' \
    'u4\tnot only muscle pain but no skin rash\tA\t9:20' \
    'u5\tno muscle ache, not sure about skin rash or muscle\tN\t' >"$out/user.tsv"
printf '# terms\nmuscle\nmuscle pain\nmuscle pain in legs\nmuscle ache\nskin #rash\ncan’t sleep\n' \
    >"$out/user-terms.txt"
printf '# cues\nno doubt|pseudo_trigger\nno|pre_trigger\nnot|pre_trigger\nnot only|pseudo_trigger\nnot sure about|pseudo_trigger\nbut|terminator\n' \
    >"$out/user-cues.txt"
run user-lexicons-extract extract --corpus "$out/user.tsv" --ade-lexicon "$out/user-terms.txt" \
    --out "$out/user.preds.tsv"
run user-lexicons-detect detect --corpus "$out/user.tsv" --phenomenon neg \
    --lexicon "$out/user-cues.txt" --out "$out/user.scopes.tsv"
run user-lexicons-prefilter prefilter --corpus "$out/user.tsv" --phenomena neg \
    --neg-lexicon "$out/user-cues.txt" --out "$out/user.kept.tsv"
# The word gate: short texts whose cues and terms touch the edges of a
# word run (#No, @no, no., (not), NOT, don't, x'no, no_way, n0, rash_x, #Rash
# and a cue after a form feed), texts that are not ASCII (ſo and the Kelvin
# sign fold to ASCII, İ to i and a combining dot, ß to ss; an em dash, a
# curly apostrophe, a ZWJ emoji sequence and a no-break space split words)
# and one of each with no cue. The user negation lexicon holds no_way, n0,
# İyi and ſo, and its gate is on; the user speculation lexicon holds a
# punctuation-only cue, which turns its gate off, so filter meets a gated
# and an ungated lexicon in one call, and prefilter two gated ones (with the
# bundled speculation lexicon). extract runs with the bundled terms, with
# Rash, rash_x, n0, don't, STRAßE and the Kelvin sign (gated; a term file
# line starting with # is a comment, so the hashtag is on the text side),
# and with a term list holding the punctuation-only term "?" (ungated).
printf 'id\ttext\tclass\tspans\n' >"$out/gate.tsv"
printf '%b\n' \
    'w01\t#No rash since the dose\tX\t' \
    'w02\t@no rash here\tX\t' \
    'w03\ta rash, then no. itch now\tX\t' \
    'w04\titching (not) rash\tX\t' \
    'w05\tNOT a rash today\tX\t' \
    "w06\\ti don't get a rash\\tX\\t" \
    "w07\\tx'no rash today\\tX\\t" \
    'w08\tno_way rash today\tX\t' \
    'w09\tn0 rash today\tX\t' \
    'w10\titch\x0cno rash\tX\t' \
    'w11\tslept fine with a rash\tX\t' \
    'w12\tis it a rash? maybe\tX\t' \
    'w13\ta rash_x, not a #Rash\tX\t' \
    'w14\tſo rash today\tX\t' \
    'w15\tthe \xe2\x84\xaa test, no rash\tX\t' \
    'w16\tİyi değil, rash yok\tX\t' \
    'w17\tSTRAßE rash, maybe itch\tX\t' \
    'w18\titch — no rash\tX\t' \
    'w19\ti don’t get a rash\tX\t' \
    'w20\trash again 👨\xe2\x80\x8d👩\xe2\x80\x8d👧 not now\tX\t' \
    'w21\tno\xc2\xa0rash today\tX\t' \
    'w22\tcafé — slept fine ’til noon 🙏\tX\t' >>"$out/gate.tsv"
printf '# cues\nno_way|pre_trigger\nn0|pre_trigger\nno|pre_trigger\nnot|pre_trigger\nİyi|pre_trigger\nſo|pre_trigger\n' \
    >"$out/gate-neg.txt"
printf '# cues\n?|post_trigger\nmaybe|pre_trigger\n' >"$out/gate-spec.txt"
printf "# terms\\nRash\\nrash_x\\nn0\\ndon't\\nSTRAßE\\n\\xe2\\x84\\xaa\\n" >"$out/gate-terms.txt"
printf '# terms\n?\nitch\n' >"$out/gate-terms-punct.txt"
run word-gate-extract extract --corpus "$out/gate.tsv" --out "$out/gate.preds.tsv"
run word-gate-extract-user extract --corpus "$out/gate.tsv" \
    --ade-lexicon "$out/gate-terms.txt" --out "$out/gate.preds-user.tsv"
run word-gate-extract-punct extract --corpus "$out/gate.tsv" \
    --ade-lexicon "$out/gate-terms-punct.txt" --out "$out/gate.preds-punct.tsv"
run word-gate-detect-neg detect --corpus "$out/gate.tsv" --phenomenon neg \
    --out "$out/gate.scopes-neg.tsv"
run word-gate-detect-user detect --corpus "$out/gate.tsv" --phenomenon neg \
    --lexicon "$out/gate-neg.txt" --out "$out/gate.scopes-user.tsv"
run word-gate-filter filter --corpus "$out/gate.tsv" --predictions "$out/gate.preds.tsv" \
    --neg-lexicon "$out/gate-neg.txt" --spec-lexicon "$out/gate-spec.txt" \
    --out "$out/gate.filtered.tsv" --audit "$out/gate.audit.tsv"
run word-gate-prefilter prefilter --corpus "$out/gate.tsv" --phenomena neg+spec \
    --neg-lexicon "$out/gate-neg.txt" --out "$out/gate.kept.tsv"
# Outputs of no line: a JSON-lines corpus with no cue-bearing sample, which
# prefilter keeps none of, and a prediction file with neither header nor
# row, which filter writes back empty (its audit holds only the header).
printf '{"id": "q1", "text": "all quiet today", "class": "X", "spans": []}\n' \
    >"$out/quiet.jsonl"
printf 'id\ttext\tclass\tspans\nq1\tall quiet today\tX\t\n' >"$out/quiet.tsv"
: >"$out/empty.preds.tsv"
run empty-outputs-prefilter prefilter --corpus "$out/quiet.jsonl" --format jsonl \
    --out "$out/quiet.kept.jsonl"
run empty-outputs-filter filter --corpus "$out/quiet.tsv" --predictions "$out/empty.preds.tsv" \
    --out "$out/empty.filtered.tsv" --audit "$out/empty.audit.tsv"
# Compose on multi-span, escaped rows: m1 and m2 hold spans out of order,
# m1's text a tab and a newline, m2's two backslashes, one before an n, and
# the X, N and S rows a tab, a tab and a backslash, and a newline.
printf 'id\ttext\tclass\tspans\n%b\n%b\n%b\n' \
    'm1\tmy\\theadache, no\\nrash\tA\t16:20;0:2;3:11' \
    'm2\tC:\\\\dose\\\\nausea! then rash\tA\t21:25;8:14' \
    'x1\tall quiet\\there\tX\t' >"$out/ms-base.tsv"
printf 'id\ttext\tclass\tspans\n%b\n' 'n1\tno rash\\ttoday\\\\anyway\tN\t' >"$out/ms-n.tsv"
printf 'id\ttext\tclass\tspans\n%b\n' 's1\tmaybe a rash?\\nor not\tS\t' >"$out/ms-s.tsv"
printf '%s\n' \
    '{"id": "m1", "text": "my\theadache, no\nrash", "class": "A", "spans": [[16, 20], [0, 2], [3, 11]]}' \
    '{"id": "m2", "text": "C:\\dose\\nausea! then rash", "class": "A", "spans": [[21, 25], [8, 14]]}' \
    '{"id": "x1", "text": "all quiet\there", "class": "X", "spans": []}' >"$out/ms-base.jsonl"
printf '%s\n' '{"id": "n1", "text": "no rash\ttoday\\anyway", "class": "N", "spans": []}' \
    >"$out/ms-n.jsonl"
printf '%s\n' '{"id": "s1", "text": "maybe a rash?\nor not", "class": "S", "spans": []}' \
    >"$out/ms-s.jsonl"
run compose-multispan compose --base "$out/ms-base.tsv" --n-pool "$out/ms-n.tsv" \
    --s-pool "$out/ms-s.tsv" --add-n --add-s --out "$out/ms.tsv"
run compose-multispan-jsonl compose --format jsonl --base "$out/ms-base.jsonl" \
    --n-pool "$out/ms-n.jsonl" --s-pool "$out/ms-s.jsonl" --add-n --add-s --out "$out/ms.jsonl"
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
printf 'id\ttext\tclass\tspans\n#1\ti have a headache\tX\t\n' >"$out/hash-id.tsv"
printf 'id\ttext\tclass\tspans\n  \ti have a headache\tX\t\n' >"$out/blank-id.tsv"
fault cue-break-detect detect --corpus cue-break.tsv --phenomenon spec \
    --out cue-break.scopes.tsv
fault cue-break-filter filter --corpus cue-break.tsv --predictions cue-break.preds.tsv \
    --filters spec --out cue-break.filtered.tsv --audit cue-break.audit.tsv
fault cr-id extract --corpus cr-id.jsonl --format jsonl --out cr-id.preds.tsv
fault hash-id extract --corpus hash-id.tsv --out hash-id.preds.tsv
fault blank-id extract --corpus blank-id.tsv --out blank-id.preds.tsv
fault same-audit filter --corpus cue-break.tsv --predictions cue-break.preds.tsv \
    --out same.tsv --audit same.tsv
# Cue windows across each kind of gap: a lone carriage return and a CRLF
# (both stop a scope), a tab (does not) and a … token (stops it).
printf 'id\ttext\tclass\tspans\n%b\n%b\n%b\n%b\n' \
    'g1\tno rash\\ror itch, maybe\\tthe dose\tX\t' \
    'g2\tnever\\tany pain\\r\\nor rash; i think the pill… or the dose\tX\t' \
    'g3\tok\\rthe rash\\tor something, not sure\\twhy\tX\t' \
    'g4\tDON’T know\\t\\tif it… might be the #Dose\\r\\n\tX\t' >"$out/gaps.tsv"
fault detect-gaps-neg detect --corpus gaps.tsv --phenomenon neg --out gaps.scopes-neg.tsv
fault detect-gaps-spec detect --corpus gaps.tsv --phenomenon spec --out gaps.scopes-spec.tsv
printf '# cues\nnot|pre_trigger\nnot|pre_trigger\n' >"$out/dup-cue.txt"
printf '{\n  "window": 5,\n  "filters": ,\n  "jobs": 1\n}\n' >"$out/bad-config.json"
fault dup-cue detect --corpus one.tsv --phenomenon neg --lexicon dup-cue.txt \
    --out dup-cue.scopes.tsv
fault bad-config extract --corpus one.tsv --config bad-config.json --out bad-config.preds.tsv
printf 'id\ttext\tclass\tspans\nx1\tall quiet\tX\t\nx1\tstill quiet\tX\t\n' >"$out/dup-id.tsv"
printf '# model: m\nx1\t\nx1\t0:3\n' >"$out/dup-pred.tsv"
printf '# terms\nrash\nRash\n' >"$out/dup-term.txt"
fault dup-id extract --corpus dup-id.tsv --out dup-id.preds.tsv
fault dup-pred evaluate --corpus one.tsv --predictions dup-pred.tsv --out dup-pred.json
fault dup-term extract --corpus one.tsv --ade-lexicon dup-term.txt --out dup-term.preds.tsv
printf '# terms\nskin rash\nskin #rash\n' >"$out/dup-key-term.txt"
printf '# cues\nno doubt|pseudo_trigger\nno doubt|pre_trigger\n' >"$out/dup-key-cue.txt"
fault dup-key-term extract --corpus one.tsv --ade-lexicon dup-key-term.txt \
    --out dup-key-term.preds.tsv
fault dup-key-cue detect --corpus one.tsv --phenomenon neg --lexicon dup-key-cue.txt \
    --out dup-key-cue.scopes.tsv
fault empty-lexicon-path extract --corpus one.tsv --ade-lexicon "" \
    --out empty-lexicon-path.preds.tsv
fault empty-config-path extract --corpus one.tsv --config "" \
    --out empty-config-path.preds.tsv
printf 'id\ttext\tclass\tspans\nn1\tno rash here\tN\t\n' >"$out/n-pool.tsv"
fault pool-without-add compose --base one.tsv --n-pool n-pool.tsv \
    --out pool-without-add.tsv
exit "$status"
