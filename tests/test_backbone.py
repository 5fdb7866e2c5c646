import inspect
import json
import math
import re
import struct
import threading
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contspan import autodiff as ad
from contspan import backbone
from contspan.autodiff import Tensor
from contspan.backbone import (BackboneModel, ModelConfig, NEG_INF, span_loss_batch,
                               decode_answer)
from contspan.data import GenConfig, generate_cdaq_stream
from contspan.engine import ContinualConfig, ContinualEngine, gold_span_loss


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


def padded_forward(model, id_lists):
    """Reference: the encoder on padded (B, l, h) rows, every layer through
    ad.matmul and ad.add with the padding included, then the span heads."""
    P, cfg = model.params, model.config
    B, l = len(id_lists), max(len(ids) for ids in id_lists)
    batch = np.zeros((B, l), dtype=np.int64)
    mask = np.zeros((B, l))
    for i, ids in enumerate(id_lists):
        batch[i, :len(ids)] = ids
        mask[i, :len(ids)] = 1.0
    nh = cfg.n_heads
    dh = cfg.hidden // nh
    x = ad.embedding(P["tok_emb"], batch) + ad.index(P["pos_emb"], slice(0, l))
    x = ad.layer_norm(x, P["ln_emb_g"], P["ln_emb_b"])
    attn_bias = Tensor(NEG_INF * (1.0 - mask)[:, None, None, :])
    for i in range(cfg.n_layers):
        def lin(t, nm):
            return ad.matmul(t, P[f"blk{i}.w{nm}"]) + P[f"blk{i}.b{nm}"]

        q, k, v = (ad.transpose(ad.reshape(lin(x, nm), (B, l, nh, dh)), (0, 2, 1, 3))
                   for nm in "qkv")
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        probs = ad.softmax(scores + attn_bias)
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (B, l, cfg.hidden))
        x = ad.layer_norm(x + lin(ctx, "o"), P[f"blk{i}.ln1_g"], P[f"blk{i}.ln1_b"])
        x = ad.layer_norm(x + lin(ad.gelu(lin(x, "1")), "2"),
                          P[f"blk{i}.ln2_g"], P[f"blk{i}.ln2_b"])
    return (x, mask, *model.span_logits_batch(x, mask))


RAGGED = ["l_max_row", "one_token_rows", "unpadded", "full_chunk"]


def ragged_batch(batch):
    """A desk-size model and one of four batches: a row at l_max with ragged
    rows, 1-token rows, an unpadded batch, a full forward-only chunk."""
    cfg = ModelConfig(vocab_size=50, hidden=64, n_layers=2, n_heads=2, l_max=64)
    model = BackboneModel(cfg, ad.seeded_rng(4))
    rng = ad.seeded_rng(5)
    lens = {"l_max_row": [64, 1, 17, 40],
            "one_token_rows": [1, 3, 1, 1, 2],
            "unpadded": [23] * 6,
            "full_chunk": rng.integers(1, 65, size=backbone.EVAL_BATCH)}[batch]
    return model, [rng.integers(0, cfg.vocab_size, size=n) for n in lens]


@pytest.mark.parametrize("batch", RAGGED)
def test_packed_forward_equals_padded_on_valid_positions(batch):
    """The tracked pass and an untracked copy both pack the valid tokens; they
    agree with the padded reference bit for bit on every valid position."""
    model, id_lists = ragged_batch(batch)
    h, mask, sl, el = padded_forward(model, id_lists)
    valid = mask > 0
    for m in (model, model.copy()):
        ph, pmask, psl, pel = m.forward_batch(id_lists)
        np.testing.assert_array_equal(pmask, mask)
        np.testing.assert_array_equal(ph.data[valid], h.data[valid])
        np.testing.assert_array_equal(ph.data[~valid], 0.0)
        np.testing.assert_array_equal(psl.data[valid], sl.data[valid])
        np.testing.assert_array_equal(pel.data[valid], el.data[valid])
        for logits in (psl, pel):
            np.testing.assert_array_equal(ad.softmax(logits).data[~valid], 0.0)


@pytest.mark.parametrize("batch", RAGGED)
def test_packed_gradients_equal_padded(batch):
    """Every parameter gradient of the span loss through the packed pass
    equals the padded reference's bit for bit."""
    model, id_lists = ragged_batch(batch)
    rng = ad.seeded_rng(6)
    samples = []
    for ids in id_lists:
        i, j = sorted(rng.integers(0, len(ids), size=2))
        samples.append(SimpleNamespace(answer_start=i, answer_end=j))
    grads = []
    for forward in (padded_forward, BackboneModel.forward_batch):
        _, _, sl, el = forward(model, id_lists)
        model.zero_grad()
        ad.backward(gold_span_loss(sl, el, samples))
        grads.append({k: p.grad.copy() for k, p in model.params.items()})
    for name in model.params:
        np.testing.assert_array_equal(grads[1][name], grads[0][name], err_msg=name)


SPLIT_CONFIGS = {"default": {}, "h32_4heads": {"hidden": 32, "n_heads": 4},
                 "one_head": {"n_heads": 1}}


def encoder_threads(monkeypatch) -> list[str]:
    """The name of the thread each BackboneModel._encode call ran on, listed
    as the call ends, however it ends."""
    names = []
    encode = BackboneModel._encode

    def recording(self, *args):
        try:
            return encode(self, *args)
        finally:
            names.append(threading.current_thread().name)

    monkeypatch.setattr(BackboneModel, "_encode", recording)
    return names


def output_bytes(outputs) -> list[tuple[tuple[int, ...], bytes]]:
    """Shape and bytes of each forward_batch output (h, mask, sl, el)."""
    arrays = [o.data if isinstance(o, Tensor) else o for o in outputs]
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("config", SPLIT_CONFIGS)
@pytest.mark.parametrize("rows", [1, 2, 3, 33, 64, 65])
@pytest.mark.parametrize("floor", ["measured", "zero"])
def test_untracked_forward_equals_the_tracked_one_bit_for_bit(monkeypatch, config, rows,
                                                               floor):
    """A forward-only pass of SPLIT_TOKENS padded tokens or more runs as two
    half-batches, the second on the worker thread; a tracked pass never
    splits. The untracked copy's outputs equal the tracked pass's bytes on
    ragged batches, at the measured floor and with every batch of two or
    more rows split."""
    if floor == "zero":
        monkeypatch.setattr(backbone, "SPLIT_TOKENS", 0)
    model = BackboneModel(ModelConfig(vocab_size=50, **SPLIT_CONFIGS[config]),
                          ad.seeded_rng(7))
    rng = ad.seeded_rng(8)
    id_lists = [rng.integers(0, 50, size=n) for n in rng.integers(5, 65, size=rows)]
    threads = encoder_threads(monkeypatch)
    tracked = model.forward_batch(id_lists)
    assert threads == ["MainThread"]
    threads.clear()
    untracked = model.copy().forward_batch(id_lists)
    split = floor == "zero" and rows > 1 or rows >= 33
    assert sorted(threads) == ["MainThread", "contspan-encode_0"][:1 + split]
    assert output_bytes(untracked) == output_bytes(tracked)


@pytest.mark.parametrize("bad_row", ["first", "last"])
def test_an_error_in_either_half_reaches_the_caller(monkeypatch, bad_row):
    """An id beyond the vocab in the worker's half (the last row) reaches the
    caller as the very ValueError the worker raised, as one in the caller's
    half (the first row) does; either way, both halves have ended when it
    does, and the next split pass runs as before."""
    model = BackboneModel(ModelConfig(vocab_size=50), ad.seeded_rng(7)).copy()
    rng = ad.seeded_rng(9)
    id_lists = [rng.integers(0, 50, size=64) for _ in range(40)]
    expected = output_bytes(model.forward_batch(id_lists))
    bad = [ids.copy() for ids in id_lists]
    bad[0 if bad_row == "first" else -1][3] = 50
    raised = []
    check = BackboneModel._check_ids

    def recording(self, ids):
        try:
            check(self, ids)
        except ValueError as e:
            raised.append((threading.current_thread().name, e))
            raise

    monkeypatch.setattr(BackboneModel, "_check_ids", recording)
    ended = encoder_threads(monkeypatch)
    with pytest.raises(ValueError, match=r"^token id out of range for vocab 50$") as excinfo:
        model.forward_batch(bad)
    assert sorted(ended) == ["MainThread", "contspan-encode_0"]
    ((thread, error),) = raised
    assert thread == ("MainThread" if bad_row == "first" else "contspan-encode_0")
    assert excinfo.value is error
    assert output_bytes(model.forward_batch(id_lists)) == expected


def test_encode_batch_keeps_its_signature():
    """perfbench/traced.py wraps encode_batch as (self, id_lists) and counts
    the batch's rows there."""
    assert list(inspect.signature(BackboneModel.encode_batch).parameters) == ["self",
                                                                             "id_lists"]


def test_forward_batch_records_the_expected_nodes():
    """Per encoder block the tape holds 12 nodes: six linear layers, one
    attention node (heads, scale, mask, softmax and context inside it, no
    reshape, transpose or matmul), the two residual adds, two layer norms and
    gelu. Outside the blocks: the token and position embeddings, their add and
    layer norm, the unpack and the two span heads."""
    model, id_lists = ragged_batch("l_max_row")
    _, _, sl, el = model.forward_batch(id_lists)
    ops, seen, stack = Counter(), set(), [sl, el]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._backward is None:
            continue
        seen.add(id(t))
        ops[t._op] += 1
        stack.extend(t._inputs)
    L = model.config.n_layers
    assert ops == Counter(linear=6 * L, attention=L, add=2 * L + 3, layer_norm=2 * L + 1,
                          gelu=L, embedding=2, matmul=2, unpack=1)
    assert sum(ops.values()) == 12 * L + 9


def test_backward_consumes_the_graph(monkeypatch):
    """The walk frees each activation once it has passed it: the attention
    probabilities, which each attention node keeps for its backward, die, the
    loss keeps its value, the gradients are those of a fresh run, and a second
    walk over the consumed graph raises."""
    model, id_lists = ragged_batch("l_max_row")
    samples = [SimpleNamespace(answer_start=0, answer_end=len(ids) - 1) for ids in id_lists]
    probs = []
    attention = ad.attention

    def recording_attention(*args):
        out = attention(*args)
        y = inspect.signature(out._backward).parameters["_y"].default
        assert y.shape[-2:] == (64, 64)  # (B, n_heads, l, l)
        probs.append(weakref.ref(y))
        return out

    monkeypatch.setattr(ad, "attention", recording_attention)
    _, _, sl, el = model.forward_batch(id_lists)
    loss = gold_span_loss(sl, el, samples)
    value = loss.data.copy()
    assert len(probs) == model.config.n_layers
    assert all(r() is not None for r in probs)
    model.zero_grad()
    ad.backward(loss)
    assert all(r() is None for r in probs)
    assert loss.item() == value.item()
    grads = {k: p.grad.copy() for k, p in model.params.items()}

    _, _, sl2, el2 = model.forward_batch(id_lists)
    model.zero_grad()
    ad.backward(gold_span_loss(sl2, el2, samples))
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.grad, grads[k], err_msg=k)

    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss)
    for k, p in model.params.items():  # the refused walk moved no gradient
        np.testing.assert_array_equal(p.grad, grads[k], err_msg=k)


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


def test_pooled_repr_is_first_row(monkeypatch):
    stream = generate_cdaq_stream(GenConfig(n_domains=1, train_size=4, test_size=5,
                                            vocab_size=100, l_max=32,
                                            passage_len=(10, 18)))
    monkeypatch.setattr(backbone, "EVAL_BATCH", 2)  # five rows in three chunks
    engine = ContinualEngine(stream, ContinualConfig(hidden=16, n_layers=1))
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


@pytest.mark.parametrize("cut", ["header", "payload", "config_key", "n_heads",
                                 "no_config", "no_params", "more_layers", "fewer_layers",
                                 "param_shape", "float_shape"])
def test_truncated_checkpoint_names_its_file(tmp_path, cut):
    path = tmp_path / "m.ckpt"
    make_model(seed=13).save(path)
    raw = path.read_bytes()
    # magic (8 bytes), version and header length (12), then the JSON header
    if cut in ("header", "payload"):
        path.write_bytes(raw[:8 + 12 + 10 if cut == "header" else len(raw) - 100])
        fault = "truncated checkpoint"
    else:
        # a whole file whose header the model config cannot take, or whose
        # params are not those its config builds
        (hlen,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + hlen])
        if cut == "config_key":
            header["config"]["dropout"] = 0.1
        elif cut == "n_heads":  # hidden 16 does not split into 3 heads
            header["config"]["n_heads"] = 3
        elif cut.endswith("_layers"):  # the params hold one block
            header["config"]["n_layers"] = 2 if cut == "more_layers" else 0
        elif cut == "param_shape":  # the same bytes, read as the transposed table
            header["params"][0]["shape"].reverse()
        elif cut == "float_shape":  # equal to the int shape, but no shape
            header["params"][0]["shape"] = [float(d) for d in header["params"][0]["shape"]]
        else:
            del header[cut[3:]]
        hb = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<Q", len(hb)) + hb + raw[20 + hlen:])
        fault = "malformed checkpoint header"
    with pytest.raises(ValueError, match=f"{fault}: {re.escape(str(path))}"):
        BackboneModel.load(path)


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
