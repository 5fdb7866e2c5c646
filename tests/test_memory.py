import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contspan import autodiff as ad
from contspan import memory as mem
from contspan.backbone import BackboneModel, ModelConfig
from contspan.data import Sample


def make_model(seed=0, zero_heads=False):
    cfg = ModelConfig(vocab_size=40, hidden=16, n_layers=1, n_heads=2, l_max=16)
    m = BackboneModel(cfg, ad.seeded_rng(seed))
    if zero_heads:
        m.params["w_start"].data[:] = 0.0
        m.params["w_end"].data[:] = 0.0
    return m


def make_samples(n, domain=0, q_len=2, p_len=3, seed=0):
    rng = ad.seeded_rng(seed, 77)
    out = []
    for i in range(n):
        q = rng.integers(3, 40, size=q_len).tolist()
        p = rng.integers(3, 40, size=p_len).tolist()
        offset = 1 + q_len + 1
        out.append(Sample(id=f"d{domain}-{i}", domain=domain, question_ids=q,
                          passage_ids=p, answer_start=offset,
                          answer_end=offset).assemble(16))
    return out


def make_item(domain=0, best=-math.inf, last=-math.inf, idx=0):
    s = make_samples(idx + 1, domain=domain)[idx]
    return mem.MemoryItem(sample=s, best_uncertainty=best, last_uncertainty=last)


def observe(model, item, kind):
    """One item's fresh uncertainty, through the batched scoring pass."""
    mem._observe(model, [item], kind)
    return item.last_uncertainty


def _no_observe(monkeypatch):
    monkeypatch.setattr(mem, "_observe", lambda *a, **k: None)
    monkeypatch.setattr(mem, "_cache_teacher_logits", lambda *a, **k: None)


# -- uncertainty ------------------------------------------------------------

def test_entropy_uncertainty_uniform_length_8():
    # zeroed heads make both softmaxes uniform over the 8 valid positions
    model = make_model(zero_heads=True)
    item = make_item()
    assert len(item.sample.input_ids) == 8
    u = observe(model, item, "entropy")
    assert u == pytest.approx(-2 * math.log(8), abs=1e-9)
    assert item.last_uncertainty == u and item.best_uncertainty == u


def test_entropy_uncertainty_is_zero_at_full_confidence():
    assert mem._uncertainty_value(np.eye(5)[2], np.eye(5)[3], 2, 3, "entropy") \
        == pytest.approx(0.0, abs=1e-12)


def test_prob_uncertainty_uniform_matches_brute_force():
    model = make_model(zero_heads=True)
    item = make_item()
    u = observe(model, item, "prob")
    assert u == pytest.approx(0.25, abs=1e-9)
    # exhaustive max over (i, j) pairs of p_start[i] + p_end[j]
    ps = pe = np.full(8, 1 / 8)
    brute = max(ps[i] + pe[j] for i in range(8) for j in range(8))
    assert u == pytest.approx(brute, abs=1e-9)


def test_unknown_uncertainty_kind_rejected():
    with pytest.raises(ValueError, match="unknown uncertainty"):
        mem._uncertainty_value(np.ones(2), np.ones(2), 0, 0, "bogus")


def test_best_uncertainty_is_running_max():
    model = make_model(seed=1)
    item = make_item()
    u1 = observe(model, item, "entropy")
    model.params["w_start"].data += 0.5  # perturb: u changes either way
    u2 = observe(model, item, "entropy")
    assert item.best_uncertainty == max(u1, u2)
    assert item.last_uncertainty == u2


# -- init -------------------------------------------------------------------

def test_init_memory_full_capacity_is_whole_domain():
    model = make_model()
    d1 = make_samples(6)
    m = mem.init_memory(d1, 6, model, ad.seeded_rng(0, 5), kind="entropy")
    assert sorted(it.sample.id for it in m.items) == sorted(s.id for s in d1)
    assert all(np.isfinite(it.last_uncertainty) for it in m.items)
    assert all(it.teacher_start_logits is not None for it in m.items)


def test_init_memory_overflow_warns_and_stores_all(caplog):
    model = make_model()
    d1 = make_samples(4)
    with caplog.at_level("WARNING"):
        m = mem.init_memory(d1, 10, model, ad.seeded_rng(0, 5))
    assert len(m.items) == 4
    assert "storing all" in caplog.text


def test_init_memory_deterministic(monkeypatch):
    _no_observe(monkeypatch)
    d1 = make_samples(20)
    a = mem.init_memory(d1, 5, None, ad.seeded_rng(3, 5))
    b = mem.init_memory(d1, 5, None, ad.seeded_rng(3, 5))
    assert [it.sample.id for it in a.items] == [it.sample.id for it in b.items]


def test_init_memory_inclusion_is_uniform(monkeypatch):
    _no_observe(monkeypatch)
    d1 = make_samples(10)
    counts = np.zeros(10)
    trials = 2000
    for trial in range(trials):
        m = mem.init_memory(d1, 3, None, ad.seeded_rng(trial, 5))
        for it in m.items:
            counts[int(it.sample.id.split("-")[1])] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.3) < 0.03)


# -- retention weights ------------------------------------------------------

def test_retention_uniform_when_differentials_equal():
    items = [make_item(best=-0.5, last=-1.5, idx=i) for i in range(4)]
    np.testing.assert_allclose(mem.retention_weights(items, "norm1", 0.0), 0.25)


def test_retention_norm1_hand_case():
    items = [make_item(best=-0.5, last=-1.0), make_item(best=-0.5, last=-3.0)]
    w = mem.retention_weights(items, "norm1", 0.0)
    np.testing.assert_allclose(w, [1 / 6, 5 / 6], atol=1e-5)


def test_retention_norm2_clamps_below_mean():
    items = [make_item(last=-1.0), make_item(last=-1.0), make_item(last=-4.0)]
    w = mem.retention_weights(items, "norm2", np.mean([it.last_uncertainty for it in items]))
    eps = mem.WEIGHT_EPS
    want = np.array([eps, eps, 2 + eps]) / (2 + 3 * eps)
    np.testing.assert_allclose(w, want, atol=1e-12)


def test_retention_norm2_explicit_pool_mean():
    items = [make_item(last=-1.0), make_item(last=-5.0)]
    w = mem.retention_weights(items, "norm2", pool_mean=-2.0)
    # differentials [-1, 3] -> clamp [0, 3]
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-5)


def test_retention_random_is_uniform():
    items = [make_item(best=0.0, last=-9.0), make_item(best=0.0, last=0.0)]
    np.testing.assert_allclose(mem.retention_weights(items, "random", 0.0), 0.5)


def test_retention_rejects_empty_and_unknown():
    with pytest.raises(ValueError, match="empty"):
        mem.retention_weights([], "norm1", 0.0)
    with pytest.raises(ValueError, match="unknown retention"):
        mem.retention_weights([make_item()], "bogus", 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8),
       st.integers(0, 7), st.floats(0.1, 5.0))
def test_retention_monotone_in_differential(diffs, which, bump):
    which %= len(diffs)
    items = [make_item(best=0.0, last=-d, idx=i) for i, d in enumerate(diffs)]
    w_before = mem.retention_weights(items, "norm1", 0.0)
    items[which].last_uncertainty -= bump
    w_after = mem.retention_weights(items, "norm1", 0.0)
    assert w_after[which] >= w_before[which] - 1e-12
    assert abs(w_after.sum() - 1.0) < 1e-9


# -- quotas and update ------------------------------------------------------

def test_quota_examples():
    assert mem._quotas(400, 5) == [80] * 5
    assert mem._quotas(400, 3) == [134, 133, 133]
    assert sum(mem._quotas(7, 3)) == 7


def test_update_memory_rebalances_to_quotas(monkeypatch):
    _no_observe(monkeypatch)
    d0 = make_samples(10, domain=0)
    m = mem.Memory(capacity=9, items=[
        mem.MemoryItem(sample=s, best_uncertainty=0.0,
                       last_uncertainty=-1.0) for s in d0[:9]])
    d1 = make_samples(20, domain=1, seed=2)
    mem.update_memory(m, d1, None, t=2, rng=ad.seeded_rng(0, 2))
    assert len(m.items) == 9
    counts = Counter(it.sample.domain for it in m.items)
    assert counts == {0: 5, 1: 4}
    ids = [it.sample.id for it in m.items]
    assert len(set(ids)) == len(ids)


def test_update_memory_shortfall_reassigned_to_current(monkeypatch):
    _no_observe(monkeypatch)
    d0 = make_samples(2, domain=0)
    m = mem.Memory(capacity=8, items=[
        mem.MemoryItem(sample=s, best_uncertainty=0.0,
                       last_uncertainty=-1.0) for s in d0])
    d1 = make_samples(20, domain=1, seed=4)
    mem.update_memory(m, d1, None, t=2, rng=ad.seeded_rng(1, 2))
    assert len(m.items) == 8
    assert Counter(it.sample.domain for it in m.items) == {0: 2, 1: 6}


def test_update_memory_keeps_the_forgotten_item(monkeypatch):
    _no_observe(monkeypatch)
    d1 = make_samples(10, domain=1, seed=6)
    kept_forgotten = 0
    trials = 1000
    for trial in range(trials):
        items = [make_item(domain=0, best=0.0, last=0.0, idx=0),
                 make_item(domain=0, best=0.0, last=-5.0, idx=1)]
        m = mem.Memory(capacity=2, items=items)
        mem.update_memory(m, d1, None, t=2, rng=ad.seeded_rng(trial, 2))
        kept = [it for it in m.items if it.sample.domain == 0]
        assert len(kept) == 1
        if kept[0].last_uncertainty == -5.0:
            kept_forgotten += 1
    assert kept_forgotten / trials > 0.999


def test_update_memory_rejects_domains_outside_the_order(monkeypatch):
    _no_observe(monkeypatch)
    m = mem.Memory(capacity=4, items=[make_item(domain=2)])
    with pytest.raises(ValueError, match=re.escape("domains [2], not among the earlier "
                                                   "domains [0]")):
        mem.update_memory(m, make_samples(4, domain=1), None, t=2,
                          rng=ad.seeded_rng(0, 2))


def test_update_memory_preserves_cached_teacher_logits():
    """Retained items keep the logits frozen at their insertion time."""
    model = make_model(seed=5)
    d0 = make_samples(8, domain=0)
    m = mem.init_memory(d0, 4, model, ad.seeded_rng(0, 5))
    cached = {it.sample.id: it.teacher_start_logits.copy() for it in m.items}
    model.params["w_start"].data += 1.0
    d1 = make_samples(8, domain=1, seed=7)
    mem.update_memory(m, d1, model, t=2, rng=ad.seeded_rng(0, 2))
    for it in m.items:
        if it.sample.domain == 0:
            np.testing.assert_array_equal(it.teacher_start_logits,
                                          cached[it.sample.id])
        else:
            assert it.teacher_start_logits is not None


# -- serialization ----------------------------------------------------------

def test_memory_roundtrip(tmp_path):
    model = make_model(seed=8)
    d0 = make_samples(6)
    m = mem.init_memory(d0, 3, model, ad.seeded_rng(0, 5))
    path = tmp_path / "mem.jsonl"
    mem.save_memory(m, path)
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"_capacity": m.capacity} and len(records) == len(m.items)
    for a, rec in zip(m.items, records):
        b = Sample.from_record(rec).assemble(16)
        assert a.sample.id == b.id
        assert a.sample.input_ids == b.input_ids
        assert a.best_uncertainty == rec["_memory"]["best_uncertainty"]
        np.testing.assert_array_equal(a.teacher_start_logits,
                                      rec["_memory"]["teacher_start_logits"])
