import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contspan import autodiff as ad
from contspan.autodiff import Tensor
from contspan.backbone import (BackboneModel, ModelConfig, NEG_INF, span_loss_batch,
                               decode_answer)
from contspan.data import GenConfig, generate_cdaq_stream
from contspan.engine import ContinualConfig, ContinualEngine


def make_model(seed=0, **kw):
    cfg = ModelConfig(vocab_size=kw.pop("vocab_size", 20), hidden=kw.pop("hidden", 16),
                      n_layers=kw.pop("n_layers", 1), n_heads=kw.pop("n_heads", 2),
                      l_max=kw.pop("l_max", 16), **kw)
    return BackboneModel(cfg, ad.seeded_rng(seed))


def encode_one(m, ids):
    h, _ = m.encode_batch([ids])
    return h.data[0]


def decode_one(ps, pe, max_answer_len, valid_len=None):
    """decode_answer on a one-row batch; valid_len limits the mask."""
    mask = np.zeros((1, len(ps)))
    mask[0, :len(ps) if valid_len is None else valid_len] = 1.0
    i, j = decode_answer(np.asarray(ps)[None], np.asarray(pe)[None], mask, max_answer_len)
    return int(i[0]), int(j[0])


def log_softmax_np(z):
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=10, hidden=10, n_heads=3)


def test_encode_zero_embeddings_stays_finite():
    m = make_model()
    m.params["tok_emb"].data[:] = 0.0
    m.params["pos_emb"].data[:] = 0.0
    assert np.isfinite(encode_one(m, [0, 3, 5])).all()


def test_encode_deterministic():
    a = encode_one(make_model(seed=7), [1, 2, 3, 4])
    b = encode_one(make_model(seed=7), [1, 2, 3, 4])
    np.testing.assert_array_equal(a, b)


def test_encode_rejects_bad_inputs():
    m = make_model()
    with pytest.raises(ValueError, match="l_max"):
        m.encode_batch([[1, 2], list(range(17))])
    with pytest.raises(ValueError, match="out of range"):
        m.encode_batch([[0, 25]])
    with pytest.raises(ValueError, match="non-empty"):
        m.encode_batch([[1, 2], []])


def test_encoder_permutation_equivariant_without_positions():
    m = make_model(seed=3)
    m.params["pos_emb"].data[:] = 0.0
    ids = np.array([4, 9, 1, 7, 2, 5])
    perm = np.array([3, 0, 5, 1, 4, 2])
    h = encode_one(m, ids)
    h_perm = encode_one(m, ids[perm])
    np.testing.assert_allclose(h_perm, h[perm], atol=1e-10)


def test_padding_does_not_change_valid_rows():
    m = make_model(seed=1)
    short = encode_one(m, [1, 2, 3])
    h, _ = m.encode_batch([[1, 2, 3], [1, 2, 3, 4, 5]])
    np.testing.assert_allclose(h.data[0, :3], short, atol=1e-10)


def test_predict_spans_uniform_when_head_is_zero():
    m = make_model()
    m.params["w_start"].data[:] = 0.0
    _, _, sl, _ = m.forward_batch([[1, 2, 3, 4], [1, 2]])
    p = ad.softmax(sl).data
    np.testing.assert_allclose(p[0], 0.25, atol=1e-12)
    # padded positions get exactly zero probability
    np.testing.assert_array_equal(p[1], [0.5, 0.5, 0.0, 0.0])


def test_predict_spans_uniform_on_identical_rows():
    m = make_model()
    h = Tensor(np.tile(np.linspace(-1, 1, 16), (1, 5, 1)))
    sl, el = m.span_logits_batch(h, np.ones((1, 5)))
    np.testing.assert_allclose(ad.softmax(sl).data, 0.2, atol=1e-12)
    np.testing.assert_allclose(ad.softmax(el).data, 0.2, atol=1e-12)


def test_predict_spans_matches_matvec_oracle():
    m = make_model(seed=5)
    rng = ad.seeded_rng(8)
    h = rng.normal(size=(2, 6, 16))
    mask = np.ones((2, 6))
    mask[1, 4:] = 0.0
    sl, el = m.span_logits_batch(Tensor(h), mask)
    bias = NEG_INF * (1.0 - mask)
    np.testing.assert_allclose(sl.data, h @ m.params["w_start"].data + bias, atol=1e-10)
    np.testing.assert_allclose(el.data, h @ m.params["w_end"].data + bias, atol=1e-10)


def test_span_loss_values():
    # a near-delta distribution drives the loss to ~0
    big = np.full((1, 6), -1e3)
    big[0, 2] = 1e3
    assert span_loss_batch(Tensor(big), Tensor(big), [2], [2]).item() < 1e-8
    # uniform over length 8: -2 log(1/8)
    uni = Tensor(np.zeros((1, 8)))
    assert span_loss_batch(uni, uni, [3], [5]).item() \
        == pytest.approx(2 * math.log(8), abs=1e-12)


def test_span_loss_batch_matches_single():
    rng = ad.seeded_rng(9)
    sl = rng.normal(size=(3, 7))
    el = rng.normal(size=(3, 7))
    singles = [-(log_softmax_np(sl[i])[i] + log_softmax_np(el[i])[i + 1])
               for i in range(3)]
    batched = span_loss_batch(Tensor(sl), Tensor(el),
                              np.arange(3), np.arange(1, 4))
    assert batched.item() == pytest.approx(np.mean(singles), abs=1e-12)


def test_decode_answer_one_hot_cases():
    ps = np.zeros(6); ps[2] = 1.0
    pe = np.zeros(6); pe[4] = 1.0
    assert decode_one(ps, pe, max_answer_len=8) == (2, 4)
    # end before start is banned, falls back to the best legal cell
    assert decode_one(ps, pe, max_answer_len=2) != (2, 4)


def test_decode_answer_uniform_ties_break_row_major():
    p = np.full(5, 0.2)
    assert decode_one(p, p, max_answer_len=3) == (0, 0)


def test_decode_answer_respects_valid_len():
    ps = np.array([0.1, 0.1, 0.1, 0.7])
    i, j = decode_one(ps, ps, max_answer_len=4, valid_len=3)
    assert i < 3 and j < 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 16), min_size=1, max_size=4), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_decode_answer_matches_brute_force(lens, max_len, seed):
    """Ragged rows; padded cells hold random values the mask must exclude."""
    rng = ad.seeded_rng(seed)
    l = max(lens)
    ps, pe = rng.random((len(lens), l)), rng.random((len(lens), l))
    mask = (np.arange(l) < np.array(lens)[:, None]).astype(float)
    starts, ends = decode_answer(ps, pe, mask, max_len)
    for r, n in enumerate(lens):
        best, best_score = None, -1.0
        for i in range(n):
            for j in range(i, min(n, i + max_len)):
                s = ps[r, i] * pe[r, j]
                if s > best_score:
                    best, best_score = (i, j), s
        assert (starts[r], ends[r]) == best


def test_pooled_repr_is_first_row():
    stream = generate_cdaq_stream(GenConfig(n_domains=1, train_size=4, test_size=5,
                                            vocab_size=100, l_max=32,
                                            passage_len=(10, 18)))
    engine = ContinualEngine(stream, ContinualConfig(hidden=16, n_layers=1,
                                                     eval_batch=2))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(11))
    test = stream.domains[0].test
    h, _ = model.encode_batch([s.input_ids for s in test])
    np.testing.assert_allclose(engine._pooled_reprs(model, test), h.data[:, 0],
                               atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = make_model(seed=13, n_layers=2)
    path = tmp_path / "m.ckpt"
    m.save(path)
    m2 = BackboneModel.load(path)
    assert m2.config == m.config
    for k in m.params:
        np.testing.assert_array_equal(m2.params[k].data, m.params[k].data)
    with pytest.raises(ValueError, match="checkpoint"):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTAMODL" + b"\x00" * 16)
        BackboneModel.load(bad)


def test_model_is_trainable_on_toy_task():
    """200 Adam steps on a fixed 64-sample set cut the loss by half or more."""
    m = make_model(seed=0, vocab_size=30, hidden=32, n_layers=1, l_max=12)
    rng = ad.seeded_rng(42)
    xs = [rng.integers(3, 30, size=10) for _ in range(64)]
    ys = rng.integers(0, 10, size=64)
    ye = np.minimum(ys + rng.integers(0, 2, size=64), 9)

    def batch_loss(idx):
        _, mask, sl, el = m.forward_batch([xs[i] for i in idx])
        return span_loss_batch(sl, el, ys[idx], ye[idx])

    initial = batch_loss(np.arange(64)).item()
    opt = ad.Adam(m.parameters(), lr=3e-3)
    for step in range(200):
        idx = rng.permutation(64)[:16]
        loss = batch_loss(idx)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
    final = batch_loss(np.arange(64)).item()
    assert final < 0.5 * initial
