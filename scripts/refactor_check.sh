#!/usr/bin/env bash
# Byte-identity check for a change meant to keep behaviour.
#
#   scripts/refactor_check.sh OUT                run the refactor set into OUT
#   scripts/refactor_check.sh --compare OLD NEW  cmp the outputs of two such runs
#
# The first form generates a tiny passage-shift stream in OUT/stream, builds
# it once more through the library (GenConfig, generate_cdac_stream and
# write_stream, in OUT/library_stream) and exits 1 unless the two hold the
# same files, byte for byte. It then runs, with the package in this
# checkout's src/: every method, `eval` of the full
# method's final checkpoint, the other uncertainty and retention rules with a
# domain order and an odd batch size, and capacities 0, 60 and 100 (above the
# first domain's 48 training rows) for ma_mrc, agem and der. agem, derpp and
# online_ewc run once more with batch size 7 and order 1,2,0, so each method's
# loss and gradient projection also meet a partial last batch and a stream
# out of index order; upper and ewc run once more with order 2,0,1. The README's
# "Library use" path trains the same ma_mrc run in-process (python3 -c, out_dir
# OUT/library), and the script exits 1 unless its report.json and step
# checkpoints equal ma_mrc.json and ma_mrc/step*.ckpt byte for byte, so the
# library and the command run alike. A --resume
# run over the finished ma_mrc directory replays every committed step's
# memory and writes OUT/ma_mrc_resume.json; another resumes a copy of that
# directory cut back to two committed steps (ma_mrc_cut), so step 3 trains on
# the replayed memory. `contspan report --csv` writes the F1 curve of the
# ma_mrc run to OUT/ma_mrc.csv. It also scores the full method's final
# checkpoint on OUT/deskstream, made with the same generator settings (so
# the same vocab) but 256 test rows per domain: forward-only passes then
# run full 64-row chunks, as the benchmark's evaluation does, and on
# OUT/raggedstream, a copy of it cut to 65 and 97 test rows in its first two
# domains, so the last chunks hold 1 and 33 rows: a batch too small to split
# and one that splits into odd halves. OUT/textstream is OUT/stream with every
# token record rewritten as a text record (its question, passage and answer
# are its vocab tokens joined by spaces, and answer_char_start points at the
# answer's first token), plus one record in the first domain's training file
# whose answer_char_start lies past its passage, which the load drops; the
# full method trains on it (ma_mrc_text) and `eval` scores that run's final
# checkpoint on it (eval_text.json). It trains the
# full method on OUT/cdaqstream too, a tiny question-shift stream, so the
# paper's second setting is covered as well. Two runs take their settings from
# a --config manifest: the full method with no adversarial game, a halved KL
# weight and a one-block, four-head model; and the full method with one
# attention head, where numpy makes views of the head layouts that the two-
# and four-head runs copy. The stdout of `contspan gradcheck`
# goes to OUT/gradcheck.txt. It runs inside OUT with relative paths, so
# eval.json records the same checkpoint path in every OUT. Each other command's
# output goes to OUT/<run>.log. The line count of the checkout's package
# (the total of `wc -l src/contspan/*.py`) goes to OUT/src_lines.txt. One
# more ma_mrc run on OUT/stream goes through perfbench/traced.py, as it is,
# and writes the number of Adam steps and of backward walks (the span counts
# of autodiff.adam.step and autodiff.backward) and the counters
# autodiff.nodes, adversarial.probe.steps, distill.teacher_rows and
# memory.forward_rows to OUT/trace_counts.json, so an update that routes
# around a traced function shows as a difference. Its report and spans stay
# in OUT/trace/. Run it at both commits, then compare.
#
# Every command runs with one BLAS thread (OPENBLAS_NUM_THREADS,
# OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, as perfbench/run.py's
# child_env sets them), whatever the caller's environment: a threaded BLAS
# may split a product differently and so round it differently, and both
# sides of a comparison must round alike.
#
# The second form compares the five streams, every report, checkpoint (init.ckpt
# too) and saved memory, the CSV, gradcheck.txt and trace_counts.json, prints
# the files that differ (a file missing on one side differs) and their count,
# and exits 1 if any differ. A differing JSON file that is equal once
# metadata.config_hash and metadata.config are dropped, as after a config
# field is renamed or removed, is marked so; it still counts as differing. A
# differing checkpoint whose header is the same on both sides is printed with
# how many of its parameters differ and the largest absolute difference, so a
# change that only moves rounding reads as one. Logs and timing.json hold
# wall times and are left out, and so is src_lines.txt: the comparison prints
# both sides' line counts instead ("missing" for a run that wrote none). It
# then parses every *.json and *.jsonl file of NEW (each line of a .jsonl)
# with a strict JSON parser, which rejects NaN, Infinity and -Infinity, prints
# each file it rejects and their count, and exits 1 if it rejects any.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

usage() {
    echo "usage: $0 OUT | $0 --compare OLD NEW" >&2
    exit 2
}

outputs() {
    (cd "$1" && shopt -s nullglob &&
        printf '%s\n' stream/* textstream/* deskstream/* raggedstream/* cdaqstream/* *.json \
            *.csv */report*.json */init.ckpt */step*.ckpt */step*.memory.jsonl gradcheck.txt)
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

# print how many parameters two checkpoints of one header hold apart and the
# largest absolute difference; exit 1 if their headers or lengths differ
param_diff() {
    python3 - "$1" "$2" 2>/dev/null <<'EOF'
import struct
import sys

import numpy as np


def load(path):
    with open(path, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    return raw[:20 + hlen], np.frombuffer(raw[20 + hlen:], dtype="<f8")


(head_a, a), (head_b, b) = load(sys.argv[1]), load(sys.argv[2])
if head_a != head_b or a.size != b.size:
    sys.exit(1)
print(f"{np.count_nonzero(a != b):,} of {a.size:,} parameters differ, "
      f"by at most {np.max(np.abs(a - b)):.2e}")
EOF
}

# print each *.json and *.jsonl file under a directory that a strict JSON
# parser rejects, and their count; exit 1 if there is any
strict_json() {
    python3 - "$1" <<'EOF'
import json
import sys
from pathlib import Path


def reject(name):
    raise ValueError(f"{name} is not JSON")


root, bad, total = Path(sys.argv[1]), 0, 0
for path in sorted(p for p in root.rglob("*") if p.suffix in (".json", ".jsonl")):
    total += 1
    text = path.read_text(encoding="utf-8")
    try:
        for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(line, parse_constant=reject)
    except ValueError as e:
        print(f"not strict JSON: {path.relative_to(root)} ({e})")
        bad += 1
print(f"{bad} of {total} JSON files in {root} are not strict JSON")
sys.exit(bad > 0)
EOF
}

src_lines() {
    cat "$1/src_lines.txt" 2>/dev/null || echo missing
}

compare() {
    local old=$1 new=$2 n=0 total=0 f detail strict=0
    echo "src/contspan lines: $(src_lines "$old") in $old, $(src_lines "$new") in $new"
    for f in $({ outputs "$old"; outputs "$new"; } | sort -u); do
        total=$((total + 1))
        if ! cmp -s "$old/$f" "$new/$f"; then
            if [[ $f == *.json ]] && equal_without_config "$old/$f" "$new/$f"; then
                echo "differs: $f (equal without metadata.config_hash and metadata.config)"
            elif [[ $f == *.ckpt ]] && detail=$(param_diff "$old/$f" "$new/$f"); then
                echo "differs: $f ($detail)"
            else
                echo "differs: $f"
            fi
            n=$((n + 1))
        fi
    done
    echo "$n of $total files differ"
    strict_json "$new" || strict=1
    [ "$n" -eq 0 ] && [ "$strict" -eq 0 ]
}

contspan() {
    local log=$1
    shift
    python3 -m contspan.cli "$@" >"$log.log" 2>&1 ||
        { echo "failed: contspan $* (see $OUT/$log.log)" >&2; exit 1; }
}

run_set() {
    local root
    root="$(cd "$(dirname "$0")/.." && pwd)"
    export PYTHONPATH="$root/src"
    mkdir -p "$OUT"
    cat "$root"/src/contspan/*.py | wc -l >"$OUT/src_lines.txt"
    cd "$OUT"
    local m c
    python3 -m contspan.cli gradcheck >gradcheck.txt 2>gradcheck.log ||
        { echo "failed: contspan gradcheck (see $OUT/gradcheck.txt)" >&2; exit 1; }
    contspan gen gen --setting cdac --domains 3 --train-size 48 --test-size 16 \
        --seed 0 --out stream
    python3 -c 'from contspan.data import GenConfig, generate_cdac_stream, write_stream
write_stream(generate_cdac_stream(GenConfig(n_domains=3, train_size=48, test_size=16, seed=0)),
             "library_stream")' >library_stream.log 2>&1 ||
        { echo "failed: library stream (see $OUT/library_stream.log)" >&2; exit 1; }
    for f in stream/*; do
        cmp -s "library_$f" "$f" || { echo "failed: library_$f differs from $f" >&2; exit 1; }
    done
    [ "$(ls library_stream | wc -l)" -eq "$(ls stream | wc -l)" ] ||
        { echo "failed: library_stream and stream hold different files" >&2; exit 1; }
    for m in ma_mrc lower upper ewc online_ewc agem der derpp; do
        contspan "$m" run --data stream --method "$m" --memory-size 12 --epochs 2 \
            --report "$m.json" --out-dir "$m"
    done
    python3 -c 'from contspan.data import load_stream
from contspan.engine import ContinualConfig, ContinualEngine
ContinualEngine(load_stream("stream"), ContinualConfig(method="ma_mrc", memory_size=12,
                                                       epochs=2)).run(out_dir="library")' \
        >library.log 2>&1 || { echo "failed: library run (see $OUT/library.log)" >&2; exit 1; }
    cmp -s library/report.json ma_mrc.json ||
        { echo "failed: library/report.json differs from ma_mrc.json" >&2; exit 1; }
    for f in ma_mrc/step*.ckpt; do
        cmp -s "library/${f#ma_mrc/}" "$f" ||
            { echo "failed: library/${f#ma_mrc/} differs from $f" >&2; exit 1; }
    done
    contspan ma_mrc_resume run --data stream --method ma_mrc --memory-size 12 --epochs 2 \
        --report ma_mrc_resume.json --out-dir ma_mrc --resume
    contspan ma_mrc_csv report --input ma_mrc.json --csv ma_mrc.csv
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
    python3 - stream textstream <<'EOF'
import json
import shutil
import sys
from pathlib import Path

src, dst = Path(sys.argv[1]), Path(sys.argv[2])
dst.mkdir()
for name in ("manifest.json", "vocab.txt"):
    shutil.copy(src / name, dst / name)
with open(src / "vocab.txt", encoding="utf-8") as f:
    token = {int(tid): tok for tok, tid in (line.rstrip("\n").split("\t") for line in f)}
for path in sorted(src.glob("*.jsonl")):
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        q, p = rec["question_ids"], rec["passage_ids"]
        lo = rec["answer_start"] - len(q) - 2  # passage-local answer indices
        hi = rec["answer_end"] - len(q) - 2
        words = [token[i] for i in p]
        out.append({"id": rec["id"], "domain": rec["domain"],
                    "question": " ".join(token[i] for i in q), "passage": " ".join(words),
                    "answer_text": " ".join(words[lo:hi + 1]),
                    "answer_char_start": len(" ".join(words[:lo] + [""]))})
    if path.name.endswith("_d0.train.jsonl"):  # its answer lies past its passage
        out.append(dict(out[0], id="past-the-passage",
                        answer_char_start=len(out[0]["passage"]) + 1))
    (dst / path.name).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in out),
                                 encoding="utf-8")
EOF
    contspan ma_mrc_text run --data textstream --method ma_mrc --memory-size 12 --epochs 2 \
        --report ma_mrc_text.json --out-dir ma_mrc_text
    contspan eval_text eval --checkpoint ma_mrc_text/step3.ckpt --data textstream \
        --report eval_text.json
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
    mkdir -p trace
    python3 "$root/perfbench/traced.py" trace/spans.npz -- run --data stream \
        --method ma_mrc --memory-size 12 --epochs 2 --report trace/ma_mrc.json \
        >trace.log 2>&1 || { echo "failed: traced ma_mrc run (see $OUT/trace.log)" >&2; exit 1; }
    python3 - trace/spans.npz >trace_counts.json <<'EOF'
import json
import sys

import numpy as np

spans = np.load(sys.argv[1])
names, counts = json.loads(str(spans["names"])), json.loads(str(spans["counts"]))
per_name = np.bincount(spans["name_of"], minlength=len(names))
out = {f"{name}.spans": int(per_name[names.index(name)]) if name in names else 0
       for name in ("autodiff.adam.step", "autodiff.backward")}
out.update({name: int(counts.get(name, 0)) for name in (
    "autodiff.nodes", "adversarial.probe.steps", "distill.teacher_rows",
    "memory.forward_rows")})
print(json.dumps(out, indent=1, sort_keys=True))
EOF
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
