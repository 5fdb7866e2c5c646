"""Fixed-capacity replay memory with uncertainty-aware retention.

Retention weight comes from how far a sample's current confidence has
fallen, either below its own best-ever value (norm1) or below the
memory-wide average (norm2); more-forgotten samples are kept with higher
probability. The per-domain quota rule keeps the total at capacity while
every seen domain stays represented.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .backbone import BackboneModel
from .data import Sample

log = logging.getLogger(__name__)

WEIGHT_EPS = 1e-6


@dataclass
class MemoryItem:
    sample: Sample
    origin_domain: int
    best_uncertainty: float = -math.inf
    last_uncertainty: float = -math.inf
    teacher_start_logits: np.ndarray | None = None
    teacher_end_logits: np.ndarray | None = None


@dataclass
class Memory:
    capacity: int
    items: list[MemoryItem] = field(default_factory=list)

    def __len__(self):
        return len(self.items)

    def domain_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for it in self.items:
            counts[it.origin_domain] = counts.get(it.origin_domain, 0) + 1
        return counts


def _observe(model: BackboneModel, items: list[MemoryItem], kind: str,
             batch_size: int = 64):
    """Fresh uncertainty pass over items; updates last and running best.

    entropy: log p_start[gold] + log p_end[gold] (0 at perfect confidence).
    prob: max_i p_start[i] + max_j p_end[j], equal to the exhaustive
    max over (i, j) pairs of p_start[i] + p_end[j].
    """
    model = model.copy(requires_grad=False)  # forward only: record no tape
    for lo in range(0, len(items), batch_size):
        chunk = items[lo:lo + batch_size]
        _, _, sl, el = model.forward_batch([it.sample.input_ids for it in chunk])
        ps = ad.softmax(sl).data
        pe = ad.softmax(el).data
        for i, it in enumerate(chunk):
            u = _uncertainty_value(ps[i], pe[i],
                                   it.sample.answer_start, it.sample.answer_end, kind)
            it.last_uncertainty = u
            it.best_uncertainty = max(it.best_uncertainty, u)


def _uncertainty_value(ps, pe, y_s, y_e, kind: str) -> float:
    if kind == "entropy":
        return float(np.log(max(ps[y_s], 1e-300)) + np.log(max(pe[y_e], 1e-300)))
    if kind == "prob":
        return float(ps.max() + pe.max())
    raise ValueError(f"unknown uncertainty kind {kind!r}")


def _cache_teacher_logits(model: BackboneModel, items: list[MemoryItem],
                          batch_size: int = 64):
    model = model.copy(requires_grad=False)  # forward only: record no tape
    for lo in range(0, len(items), batch_size):
        chunk = items[lo:lo + batch_size]
        _, mask, sl, el = model.forward_batch([it.sample.input_ids for it in chunk])
        for i, it in enumerate(chunk):
            n = int(mask[i].sum())
            it.teacher_start_logits = sl.data[i, :n].copy()
            it.teacher_end_logits = el.data[i, :n].copy()


def init_memory(d1_train: list[Sample], capacity: int, model: BackboneModel,
                rng: np.random.Generator, kind: str = "entropy") -> Memory:
    """Uniform sample of the first domain, scored by the trained step-1 model."""
    if len(d1_train) < capacity:
        log.warning("memory capacity %d exceeds first domain size %d; storing all",
                    capacity, len(d1_train))
        chosen = list(range(len(d1_train)))
    else:
        chosen = sorted(rng.choice(len(d1_train), size=capacity, replace=False).tolist())
    items = [MemoryItem(sample=d1_train[i], origin_domain=d1_train[i].domain)
             for i in chosen]
    if kind != "random":
        _observe(model, items, kind)
    _cache_teacher_logits(model, items)
    return Memory(capacity=capacity, items=items)


def retention_weights(items: list[MemoryItem], strategy: str,
                      pool_mean: float | None = None) -> np.ndarray:
    """Probability of keeping each item, from its forgottenness differential.

    norm1 compares against each item's best-ever uncertainty; norm2 against
    the supplied memory-wide mean of last uncertainties. Differentials are
    clamped at zero and floored at a small epsilon before normalizing.
    """
    if not items:
        raise ValueError("retention_weights on empty item list")
    last = np.array([it.last_uncertainty for it in items])
    if strategy == "norm1":
        ref = np.array([it.best_uncertainty for it in items])
    elif strategy == "norm2":
        if pool_mean is None:
            pool_mean = float(last.mean())
        ref = np.full(len(items), pool_mean)
    elif strategy == "random":
        return np.full(len(items), 1.0 / len(items))
    else:
        raise ValueError(f"unknown retention strategy {strategy!r}")
    w = np.maximum(ref - last, 0.0) + WEIGHT_EPS
    return w / w.sum()


def _quotas(capacity: int, t: int) -> list[int]:
    """Per-domain slot counts for t domains; remainder goes to the earliest."""
    q, r = divmod(capacity, t)
    return [q + (1 if d < r else 0) for d in range(t)]


def update_memory(memory: Memory, d_t_train: list[Sample], model: BackboneModel,
                  t: int, rng: np.random.Generator, strategy: str = "norm1",
                  kind: str = "entropy") -> Memory:
    """Re-balance memory after training step t (1-based, t >= 2).

    Old domains keep a weighted sample of their quota; the current domain's
    quota is drawn uniformly from its training set, with teacher logits
    cached from the just-trained model. Any shortfall in an old domain is
    reassigned to extra current-domain draws.
    """
    if t < 2:
        raise ValueError("update_memory applies from the second step on")
    if kind != "random":
        _observe(model, memory.items, kind)
    quotas = _quotas(memory.capacity, t)
    pool_mean = (float(np.mean([it.last_uncertainty for it in memory.items]))
                 if memory.items else 0.0)

    by_domain: dict[int, list[MemoryItem]] = {}
    for it in memory.items:
        by_domain.setdefault(it.origin_domain, []).append(it)

    kept: list[MemoryItem] = []
    shortfall = 0
    for d in range(t - 1):
        items = by_domain.get(d, [])
        quota = quotas[d]
        if len(items) <= quota:
            kept.extend(items)
            shortfall += quota - len(items)
            continue
        w = retention_weights(items, "random" if kind == "random" else strategy,
                              pool_mean=pool_mean)
        idx = rng.choice(len(items), size=quota, replace=False, p=w)
        kept.extend(items[i] for i in sorted(idx.tolist()))

    new_quota = min(quotas[t - 1] + shortfall, len(d_t_train))
    if new_quota < quotas[t - 1] + shortfall:
        log.warning("current domain smaller than its quota; memory will be short")
    idx = rng.choice(len(d_t_train), size=new_quota, replace=False)
    new_items = [MemoryItem(sample=d_t_train[i], origin_domain=d_t_train[i].domain)
                 for i in sorted(idx.tolist())]
    if kind != "random":
        _observe(model, new_items, kind)
    # retained items keep the logits cached when they entered memory
    _cache_teacher_logits(model, new_items)

    memory.items = kept + new_items
    assert len(memory.items) <= memory.capacity
    return memory


# ---------------------------------------------------------------------------
# serialization (same JSONL sample format, plus an extension block)

def save_memory(memory: Memory, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_capacity": memory.capacity}, sort_keys=True) + "\n")
        for it in memory.items:
            s = it.sample
            rec = {
                "id": s.id, "domain": s.domain,
                "question_ids": s.question_ids, "passage_ids": s.passage_ids,
                "answer_start": s.answer_start, "answer_end": s.answer_end,
                "_memory": {
                    "origin_domain": it.origin_domain,
                    "best_uncertainty": it.best_uncertainty,
                    "last_uncertainty": it.last_uncertainty,
                    "teacher_start_logits": _arr(it.teacher_start_logits),
                    "teacher_end_logits": _arr(it.teacher_end_logits),
                },
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_memory(path, l_max: int) -> Memory:
    items = []
    capacity = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f):
            rec = json.loads(line)
            if lineno == 0 and "_capacity" in rec:
                capacity = int(rec["_capacity"])
                continue
            ext = rec["_memory"]
            sample = Sample(id=rec["id"], domain=rec["domain"],
                            question_ids=rec["question_ids"],
                            passage_ids=rec["passage_ids"],
                            answer_start=rec["answer_start"],
                            answer_end=rec["answer_end"]).assemble(l_max)
            items.append(MemoryItem(
                sample=sample,
                origin_domain=ext["origin_domain"],
                best_uncertainty=ext["best_uncertainty"],
                last_uncertainty=ext["last_uncertainty"],
                teacher_start_logits=_unarr(ext["teacher_start_logits"]),
                teacher_end_logits=_unarr(ext["teacher_end_logits"]),
            ))
    return Memory(capacity=capacity, items=items)


def _arr(a):
    return None if a is None else [float(x) for x in a]


def _unarr(a):
    return None if a is None else np.array(a, dtype=np.float64)
