#!/usr/bin/env bash
# Byte-identity check for a change meant to keep behaviour.
#
#   scripts/refactor_check.sh OUT                run the refactor set into OUT
#   scripts/refactor_check.sh --compare OLD NEW  cmp the outputs of two such runs
#
# The first form generates a tiny passage-shift stream in OUT/stream and runs,
# with the package in this checkout's src/: every method, `eval` of the full
# method's final checkpoint, the other uncertainty and retention rules with a
# domain order and an odd batch size, and capacities 0, 60 and 100 (above the
# first domain's 48 training rows) for ma_mrc, agem and der. agem, derpp and
# online_ewc run once more with batch size 7 and order 1,2,0, so each method's
# loss and gradient projection also meet a partial last batch and a stream
# out of index order; upper and ewc run once more with order 2,0,1. A --resume
# run over the finished ma_mrc directory replays every committed step's
# memory and writes OUT/ma_mrc_resume.json; another resumes a copy of that
# directory cut back to two committed steps (ma_mrc_cut), so step 3 trains on
# the replayed memory. It also scores
# that checkpoint on OUT/deskstream, made with the same generator settings
# (so the same vocab) but 256 test rows per domain: forward-only passes then
# run full 64-row chunks, as the benchmark's evaluation does, and on
# OUT/raggedstream, a copy of it cut to 65 and 97 test rows in its first two
# domains, so the last chunks hold 1 and 33 rows: a batch too small to split
# and one that splits into odd halves. It trains the
# full method on OUT/cdaqstream too, a tiny question-shift stream, so the
# paper's second setting is covered as well. Two runs take their settings from
# a --config manifest: the full method with no adversarial game, a halved KL
# weight and a one-block, four-head model; and the full method with one
# attention head, where numpy makes views of the head layouts that the two-
# and four-head runs copy. The stdout of `contspan gradcheck`
# goes to OUT/gradcheck.txt. It runs inside OUT with relative paths, so
# eval.json records the same checkpoint path in every OUT. Each other command's
# output goes to OUT/<run>.log. Run it at both commits, then compare.
#
# Every command runs with one BLAS thread (OPENBLAS_NUM_THREADS,
# OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, as perfbench/run.py's
# child_env sets them), whatever the caller's environment: a threaded BLAS
# may split a product differently and so round it differently, and both
# sides of a comparison must round alike.
#
# The second form compares the four streams, every report, checkpoint (init.ckpt
# too) and saved memory and gradcheck.txt, prints the files that differ (a file missing on one
# side differs) and their count, and exits 1 if any differ. A differing JSON
# file that is equal once metadata.config_hash and metadata.config are dropped,
# as after a config field is renamed or removed, is marked so; it still counts
# as differing. Logs and timing.json hold wall times and are left out.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

usage() {
    echo "usage: $0 OUT | $0 --compare OLD NEW" >&2
    exit 2
}

outputs() {
    (cd "$1" && shopt -s nullglob &&
        printf '%s\n' stream/* deskstream/* raggedstream/* cdaqstream/* *.json \
            */report*.json */init.ckpt */step*.ckpt */step*.memory.jsonl gradcheck.txt)
}

# exit 0 if two JSON reports are equal without metadata.config_hash and
# metadata.config
equal_without_config() {
    python3 - "$1" "$2" 2>/dev/null <<'EOF'
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    for key in ("config_hash", "config"):
        report["metadata"].pop(key, None)
    return report


sys.exit(load(sys.argv[1]) != load(sys.argv[2]))
EOF
}

compare() {
    local old=$1 new=$2 n=0 total=0 f
    for f in $({ outputs "$old"; outputs "$new"; } | sort -u); do
        total=$((total + 1))
        if ! cmp -s "$old/$f" "$new/$f"; then
            if [[ $f == *.json ]] && equal_without_config "$old/$f" "$new/$f"; then
                echo "differs: $f (equal without metadata.config_hash and metadata.config)"
            else
                echo "differs: $f"
            fi
            n=$((n + 1))
        fi
    done
    echo "$n of $total files differ"
    [ "$n" -eq 0 ]
}

contspan() {
    local log=$1
    shift
    python3 -m contspan.cli "$@" >"$log.log" 2>&1 ||
        { echo "failed: contspan $* (see $OUT/$log.log)" >&2; exit 1; }
}

run_set() {
    export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
    mkdir -p "$OUT"
    cd "$OUT"
    local m c
    python3 -m contspan.cli gradcheck >gradcheck.txt 2>gradcheck.log ||
        { echo "failed: contspan gradcheck (see $OUT/gradcheck.txt)" >&2; exit 1; }
    contspan gen gen --setting cdac --domains 3 --train-size 48 --test-size 16 \
        --seed 0 --out stream
    for m in ma_mrc lower upper ewc online_ewc agem der derpp; do
        contspan "$m" run --data stream --method "$m" --memory-size 12 --epochs 2 \
            --report "$m.json" --out-dir "$m"
    done
    contspan ma_mrc_resume run --data stream --method ma_mrc --memory-size 12 --epochs 2 \
        --report ma_mrc_resume.json --out-dir ma_mrc --resume
    cp -r ma_mrc ma_mrc_cut
    rm ma_mrc_cut/step3.* ma_mrc_cut/report.json
    python3 -c 'import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    report = json.load(f)
report["steps"] = report["steps"][:2]
with open(sys.argv[1], "w", encoding="utf-8") as f:
    json.dump(report, f)' ma_mrc_cut/report.partial.json
    contspan ma_mrc_cut run --data stream --method ma_mrc --memory-size 12 --epochs 2 \
        --report ma_mrc_cut.json --out-dir ma_mrc_cut --resume
    for m in upper ewc; do
        contspan "${m}_o201" run --data stream --method "$m" --memory-size 12 --epochs 2 \
            --order 2,0,1 --report "${m}_o201.json" --out-dir "${m}_o201"
    done
    contspan eval eval --checkpoint ma_mrc/step3.ckpt --data stream --report eval.json
    contspan gendesk gen --setting cdac --domains 3 --train-size 48 --test-size 256 \
        --seed 0 --out deskstream
    contspan eval_desk eval --checkpoint ma_mrc/step3.ckpt --data deskstream \
        --report eval_desk.json
    cp -r deskstream raggedstream
    head -n 65 deskstream/cdac_d0.test.jsonl >raggedstream/cdac_d0.test.jsonl
    head -n 97 deskstream/cdac_d1.test.jsonl >raggedstream/cdac_d1.test.jsonl
    contspan eval_ragged eval --checkpoint ma_mrc/step3.ckpt --data raggedstream \
        --report eval_ragged.json
    contspan gencdaq gen --setting cdaq --domains 3 --train-size 48 --test-size 16 \
        --seed 0 --out cdaqstream
    contspan ma_mrc_cdaq run --data cdaqstream --method ma_mrc --memory-size 12 --epochs 2 \
        --report ma_mrc_cdaq.json --out-dir ma_mrc_cdaq
    contspan probnorm2 run --data stream --method ma_mrc --memory-size 12 \
        --epochs 2 --norm norm2 --uncertainty prob --order 2,0,1 --batch-size 7 \
        --report probnorm2.json --out-dir probnorm2
    mkdir -p manifest
    printf '%s\n' '{"data": "stream", "method": "ma_mrc", "memory_size": 12, "epochs": 2,' \
        '"adv_weight": 0, "kl_weight": 0.5, "hidden": 32, "n_layers": 1, "n_heads": 4}' \
        >manifest/config.json
    contspan manifest run --config manifest/config.json --report manifest.json \
        --out-dir manifest
    mkdir -p onehead
    printf '%s\n' '{"data": "stream", "method": "ma_mrc", "memory_size": 12, "epochs": 2,' \
        '"n_heads": 1}' >onehead/config.json
    contspan onehead run --config onehead/config.json --report onehead.json --out-dir onehead
    for m in agem derpp online_ewc; do
        contspan "${m}_b7" run --data stream --method "$m" --memory-size 12 --epochs 2 \
            --batch-size 7 --order 1,2,0 --report "${m}_b7.json" --out-dir "${m}_b7"
    done
    for c in 0 60 100; do
        for m in ma_mrc agem der; do
            contspan "${m}_c$c" run --data stream --method "$m" --memory-size "$c" \
                --epochs 2 --report "${m}_c$c.json" --out-dir "${m}_c$c"
        done
    done
    echo "wrote the refactor set to $OUT"
}

case "${1:-}" in
    --compare) [ $# -eq 3 ] || usage; compare "$2" "$3" ;;
    "" | -*) usage ;;
    *) [ $# -eq 1 ] || usage; OUT=$1; run_set ;;
esac
