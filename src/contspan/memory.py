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
from .metrics import atomic_write

log = logging.getLogger(__name__)

WEIGHT_EPS = 1e-6


@dataclass
class MemoryItem:
    sample: Sample
    best_uncertainty: float = -math.inf
    last_uncertainty: float = -math.inf
    teacher_start_logits: np.ndarray | None = None
    teacher_end_logits: np.ndarray | None = None


@dataclass
class Memory:
    capacity: int
    items: list[MemoryItem] = field(default_factory=list)


def _score(chunk: list[MemoryItem], sl, el, kind: str):
    """Record each item's uncertainty from its start/end logit rows;
    updates last and running best.

    entropy: log p_start[gold] + log p_end[gold] (0 at perfect confidence).
    prob: max_i p_start[i] + max_j p_end[j], equal to the exhaustive
    max over (i, j) pairs of p_start[i] + p_end[j].
    """
    ps = ad.softmax(sl).data
    pe = ad.softmax(el).data
    if kind == "entropy":
        rows = np.arange(len(chunk))
        u = (np.log(np.maximum(ps[rows, [it.sample.answer_start for it in chunk]], 1e-300))
             + np.log(np.maximum(pe[rows, [it.sample.answer_end for it in chunk]], 1e-300)))
    elif kind == "prob":
        u = ps.max(axis=1) + pe.max(axis=1)
    else:
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    for it, value in zip(chunk, u.tolist()):
        it.last_uncertainty = value
        it.best_uncertainty = max(it.best_uncertainty, value)


def _observe(model: BackboneModel, items: list[MemoryItem], kind: str):
    """Fresh uncertainty pass over items already in memory."""
    for rows, _, _, sl, el in model.forward_chunks([it.sample.input_ids for it in items]):
        _score(items[rows], sl, el, kind)


def _cache_teacher_logits(model: BackboneModel, items: list[MemoryItem], kind: str):
    """Cache new items' logits and, unless kind is random, score their
    uncertainty, from one forward pass."""
    for rows, _, mask, sl, el in model.forward_chunks(
            [it.sample.input_ids for it in items]):
        chunk = items[rows]
        if kind != "random":
            _score(chunk, sl, el, kind)
        for i, it in enumerate(chunk):
            n = int(mask[i].sum())
            it.teacher_start_logits = sl.data[i, :n].copy()
            it.teacher_end_logits = el.data[i, :n].copy()


def init_memory(d1_train: list[Sample], capacity: int, model: BackboneModel,
                rng: np.random.Generator, kind: str = "entropy") -> Memory:
    """Uniform sample of the first domain, scored by the trained step-1 model:
    the quota rule on an empty memory at t = 1."""
    return update_memory(Memory(capacity), d1_train, model, 1, rng, kind=kind)


def retention_weights(items: list[MemoryItem], strategy: str,
                      pool_mean: float) -> np.ndarray:
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
                  kind: str = "entropy", order: list[int] | None = None) -> Memory:
    """Re-balance memory after training step t (1-based).

    order is the stream's domain order (the identity if None); the domain
    at stream position i gets quota i. Old domains keep a weighted sample
    of their quota; the current domain's quota is drawn uniformly from its
    training set, with teacher logits cached from the just-trained model.
    Any shortfall in an old domain is reassigned to extra current-domain
    draws.
    """
    past = list(range(t) if order is None else order)[:t - 1]
    if kind != "random":
        _observe(model, memory.items, kind)
    quotas = _quotas(memory.capacity, t)
    pool_mean = (float(np.mean([it.last_uncertainty for it in memory.items]))
                 if memory.items else 0.0)

    by_domain: dict[int, list[MemoryItem]] = {}
    for it in memory.items:
        by_domain.setdefault(it.sample.domain, []).append(it)
    stray = set(by_domain) - set(past)
    if stray:
        raise ValueError(f"memory holds domains {sorted(stray)}, not among the "
                         f"earlier domains {past}")

    kept: list[MemoryItem] = []
    shortfall = 0
    for pos, d in enumerate(past):
        items = by_domain.get(d, [])
        quota = quotas[pos]
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
        log.warning("memory quota %d exceeds current domain size %d; storing all",
                    quotas[t - 1] + shortfall, len(d_t_train))
    idx = rng.choice(len(d_t_train), size=new_quota, replace=False)
    new_items = [MemoryItem(sample=d_t_train[i]) for i in sorted(idx.tolist())]
    # retained items keep the logits cached when they entered memory
    _cache_teacher_logits(model, new_items, kind)

    memory.items = kept + new_items
    assert len(memory.items) <= memory.capacity
    return memory


# ---------------------------------------------------------------------------
# serialization (same JSONL sample format, plus an extension block)

def save_memory(memory: Memory, path):
    with atomic_write(path, encoding="utf-8") as f:
        f.write(json.dumps({"_capacity": memory.capacity}, sort_keys=True) + "\n")
        for it in memory.items:
            # the random kind never scores an item: its -inf start is written null
            unscored = it.last_uncertainty == -math.inf
            rec = it.sample.record()
            rec["_memory"] = {
                "origin_domain": it.sample.domain,
                "best_uncertainty": None if unscored else it.best_uncertainty,
                "last_uncertainty": None if unscored else it.last_uncertainty,
                "teacher_start_logits": it.teacher_start_logits.tolist(),
                "teacher_end_logits": it.teacher_end_logits.tolist(),
            }
            f.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
