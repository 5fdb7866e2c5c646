"""Checks on contspan's outputs, computed apart from the program.

Nothing here imports contspan. Streams are read from their JSONL files,
checkpoints through their documented byte layout (magic, little-endian
version and header length, a JSON header, then raw little-endian float64
arrays in header order), and the encoder forward, the span decoder and the
token F1 are written again in plain numpy.

Every check returns a list of ``Failure``; an empty list means it passed.
A failure names the operation it belongs to: the 1-based stream step for
``run`` commands, the 0-based domain for ``eval``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"CSPANCKP"
CLS, SEP = 0, 1
LN_EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)
# Span scores within this relative distance of the best are near-ties: the
# program and this forward round differently, so either may win there.
TIE_RTOL = 1e-8
F1_ATOL = 1e-9


@dataclass(frozen=True)
class Failure:
    op: int
    what: str


@dataclass
class Row:
    id: str
    record: dict
    input_ids: list[int]
    answer_ids: list[int]


# ---------------------------------------------------------------------------
# streams

def read_manifest(data_dir) -> dict:
    with open(Path(data_dir) / "manifest.json", encoding="utf-8") as f:
        return json.load(f)


def assemble(question_ids, passage_ids, l_max: int) -> list[int]:
    """[cls] Q [sep] P [sep], the passage tail cut so the whole fits l_max."""
    kept = min(len(passage_ids), l_max - len(question_ids) - 3)
    return [CLS] + list(question_ids) + [SEP] + list(passage_ids[:kept]) + [SEP]


def read_split(data_dir, domain_name: str, split: str, l_max: int) -> list[Row]:
    rows = []
    with open(Path(data_dir) / f"{domain_name}.{split}.jsonl", encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            ids = assemble(rec["question_ids"], rec["passage_ids"], l_max)
            a, b = rec["answer_start"], rec["answer_end"]
            if b >= len(ids) - 1:
                continue  # the answer was cut away; the program drops these too
            rows.append(Row(str(rec["id"]), rec, ids, ids[a:b + 1]))
    return rows


def read_stream_split(data_dir, split: str) -> list[list[Row]]:
    man = read_manifest(data_dir)
    return [read_split(data_dir, name, split, man["l_max"]) for name in man["domains"]]


# ---------------------------------------------------------------------------
# checkpoints and the encoder forward

def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    pos = len(MAGIC)
    _version, hlen = struct.unpack_from("<IQ", blob, pos)
    pos += 12
    header = json.loads(blob[pos:pos + hlen].decode("utf-8"))
    pos += hlen
    params = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        params[entry["name"]] = np.frombuffer(blob, "<f8", n, pos).reshape(shape).copy()
        pos += 8 * n
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return header["config"], params


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def span_probs(config: dict, P: dict[str, np.ndarray], ids: np.ndarray):
    """Start/end probabilities for a (B, l) batch of equal-length inputs.

    Equal lengths need no padding mask; the program's padded batch gives
    the same values up to rounding, since its masked positions get weight
    exp(-1e9) = 0.
    """
    B, l = ids.shape
    h, nh = config["hidden"], config["n_heads"]
    dh = h // nh
    x = _layer_norm(P["tok_emb"][ids] + P["pos_emb"][:l], P["ln_emb_g"], P["ln_emb_b"])
    for i in range(config["n_layers"]):
        w = {k[len(f"blk{i}."):]: v for k, v in P.items() if k.startswith(f"blk{i}.")}
        q, k, v = ((x @ w[f"w{c}"] + w[f"b{c}"]).reshape(B, l, nh, dh).transpose(0, 2, 1, 3)
                   for c in "qkv")
        att = _softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh))
        ctx = (att @ v).transpose(0, 2, 1, 3).reshape(B, l, h)
        x = _layer_norm(x + ctx @ w["wo"] + w["bo"], w["ln1_g"], w["ln1_b"])
        u = x @ w["w1"] + w["b1"]
        ff = 0.5 * u * (1.0 + np.tanh(GELU_C * (u + 0.044715 * u * u * u))) @ w["w2"] + w["b2"]
        x = _layer_norm(x + ff, w["ln2_g"], w["ln2_b"])
    return _softmax(x @ P["w_start"]), _softmax(x @ P["w_end"])


def token_f1(pred: list[int], gold: list[int]) -> float:
    """F1 of the two token multisets."""
    counts: dict[int, int] = {}
    for t in gold:
        counts[t] = counts.get(t, 0) + 1
    overlap = 0
    for t in pred:
        if counts.get(t, 0) > 0:
            counts[t] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    p, r = overlap / len(pred), overlap / len(gold)
    return 2 * p * r / (p + r)


def candidate_spans(ps: np.ndarray, pe: np.ndarray, max_len: int):
    """Every (i, j) with i <= j < i + max_len whose score ps[i] * pe[j] is
    within TIE_RTOL of the best; usually one span."""
    n = ps.shape[0]
    best = max(float((ps[:n - d] * pe[d:]).max()) for d in range(min(max_len, n)))
    floor = best * (1.0 - TIE_RTOL)
    out = []
    for d in range(min(max_len, n)):
        for i in np.nonzero(ps[:n - d] * pe[d:] >= floor)[0]:
            out.append((int(i), int(i) + d))
    return out


def f1_bounds(config, P, rows: list[Row], max_len: int) -> tuple[float, float]:
    """Lowest and highest mean F1 the decoder can give over these rows,
    the two differing only where a row has near-tied best spans."""
    lo = hi = 0.0
    by_len: dict[int, list[Row]] = {}
    for r in rows:
        by_len.setdefault(len(r.input_ids), []).append(r)
    for group in by_len.values():
        ps, pe = span_probs(config, P, np.array([r.input_ids for r in group]))
        for k, r in enumerate(group):
            f1s = [token_f1(r.input_ids[i:j + 1], r.answer_ids)
                   for i, j in candidate_spans(ps[k], pe[k], max_len)]
            lo += min(f1s)
            hi += max(f1s)
    return lo / len(rows), hi / len(rows)


# ---------------------------------------------------------------------------
# checks

def check_report(report: dict, order: list[int], test_sizes: list[int],
                 steps: int, is_eval: bool) -> list[Failure]:
    """Step rows, the lower-triangular forgetting matrix and the aggregates.

    A ``run`` report scores the domains seen so far after each step; an
    ``eval`` report is one step scoring every domain.
    """
    fails = []
    got = report.get("steps", [])
    if len(got) != steps:
        return [Failure(steps, f"report has {len(got)} steps, expected {steps}")]
    matrix = report.get("forgetting_matrix", [])
    if not is_eval and [len(row) for row in matrix] != list(range(1, steps + 1)):
        fails.append(Failure(steps, f"forgetting matrix is not lower-triangular: "
                                    f"row lengths {[len(row) for row in matrix]}"))
    for t, s in enumerate(got, start=1):
        seen = order if is_eval else order[:t]
        doms = [e["domain"] for e in s["per_domain"]]
        if doms != seen:
            fails.append(Failure(t, f"step {t} scores domains {doms}, expected {seen}"))
            continue
        f1s = [e["f1"] for e in s["per_domain"]]
        if not is_eval and t <= len(matrix) and matrix[t - 1] != f1s:
            fails.append(Failure(t, f"forgetting matrix row {t} {matrix[t - 1]} differs "
                                    f"from the step's F1 {f1s}"))
        if any(not 0.0 <= f <= 1.0 for f in f1s):
            fails.append(Failure(t, f"step {t} F1 outside [0, 1]: {f1s}"))
        if abs(s["f1_avg"] - sum(f1s) / len(f1s)) > F1_ATOL:
            fails.append(Failure(t, f"step {t} f1_avg {s['f1_avg']} is not the mean of {f1s}"))
        sizes = [test_sizes[d] for d in seen]
        pooled = sum(f * n for f, n in zip(f1s, sizes)) / sum(sizes)
        if abs(s["f1_all"] - pooled) > F1_ATOL:
            fails.append(Failure(t, f"step {t} f1_all {s['f1_all']} is not the "
                                    f"sample-weighted mean {pooled}"))
    return fails


def check_f1(ckpt, tests: list[list[Row]], per_domain: list[dict], op_of,
             max_len: int) -> list[Failure]:
    """Reproduce each reported domain F1 from the checkpoint.

    ``op_of(domain)`` names the operation a mismatch fails.
    """
    config, P = read_checkpoint(ckpt)
    fails = []
    for e in per_domain:
        d = e["domain"]
        lo, hi = f1_bounds(config, P, tests[d], max_len)
        if not lo - F1_ATOL <= e["f1"] <= hi + F1_ATOL:
            fails.append(Failure(op_of(d), f"domain {d}: reported F1 {e['f1']:.12f}, "
                                           f"{Path(ckpt).name} gives [{lo:.12f}, {hi:.12f}]"))
    return fails


def check_beats_init(init_ckpt, trained_ckpt, tests: list[list[Row]], op_of,
                     max_len: int) -> list[Failure]:
    """The trained model's F1 beats the initial one's on every domain."""
    init, trained = read_checkpoint(init_ckpt), read_checkpoint(trained_ckpt)
    fails = []
    for d, rows in enumerate(tests):
        before = f1_bounds(*init, rows, max_len)[1]
        after = f1_bounds(*trained, rows, max_len)[0]
        if not after > before:
            fails.append(Failure(op_of(d), f"domain {d}: trained F1 {after:.4f} does not "
                                           f"beat the initial checkpoint's {before:.4f}"))
    return fails


def quotas(capacity: int, t: int) -> list[int]:
    q, r = divmod(capacity, t)
    return [q + (1 if d < r else 0) for d in range(t)]


def check_memory(path, capacity: int, step: int, order: list[int],
                 trains: list[list[Row]], l_max: int) -> list[Failure]:
    """A saved memory: exact size, per-domain quota split, genuine samples
    of seen domains, cached teacher logits as long as each input."""
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(x) for x in f if x.strip()]
    if not lines or lines[0].get("_capacity") != capacity:
        return [Failure(step, f"{Path(path).name}: header {lines[:1]}, capacity {capacity}")]
    items = lines[1:]
    fails = []
    if len(items) != capacity:
        fails.append(Failure(step, f"{Path(path).name} holds {len(items)} items, "
                                   f"expected exactly {capacity}"))
    seen = order[:step]
    counts = [sum(1 for it in items if it["domain"] == d) for d in seen]
    if counts != quotas(capacity, step):
        fails.append(Failure(step, f"{Path(path).name}: per-domain counts {counts}, "
                                   f"quotas {quotas(capacity, step)}"))
    by_id = {r.id: r for d in seen for r in trains[d]}
    fields = ("domain", "question_ids", "passage_ids", "answer_start", "answer_end")
    for it in items:
        row = by_id.get(it["id"])
        if row is None or any(it[k] != row.record[k] for k in fields):
            fails.append(Failure(step, f"memory item {it['id']} is not a training "
                                       f"sample of a seen domain"))
            continue
        ext = it["_memory"]
        n = len(assemble(it["question_ids"], it["passage_ids"], l_max))
        if ext["origin_domain"] != it["domain"]:
            fails.append(Failure(step, f"memory item {it['id']}: origin "
                                       f"{ext['origin_domain']} != domain {it['domain']}"))
        for key in ("teacher_start_logits", "teacher_end_logits"):
            if ext.get(key) is None or len(ext[key]) != n:
                got = None if ext.get(key) is None else len(ext[key])
                fails.append(Failure(step, f"memory item {it['id']}: {key} has "
                                           f"length {got}, input has {n}"))
    return fails
