"""Span-extraction backbone: transformer encoder plus start/end heads.

Desk-scale by default (h=64, 2 blocks, 2 heads, l_max=64). Every pass is
batched: rows are padded to the longest, and padded positions carry an
additive -1e9 bias in attention and in the span heads.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"CSPANCKP"
CHECKPOINT_VERSION = 1

NEG_INF = -1e9  # additive mask value; finite so tensors stay NaN/Inf-free


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 64
    n_layers: int = 2
    n_heads: int = 2
    l_max: int = 64
    ff_mult: int = 4

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden={self.hidden} not divisible by n_heads={self.n_heads}")


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with redraws outside +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


class BackboneModel:
    """Encoder parameters plus span heads, all as named requires_grad tensors."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.params: dict[str, Tensor] = {}
        if rng is None:
            rng = ad.seeded_rng(0)
        h = config.hidden
        ff = config.ff_mult * h

        def p(name, array):
            self.params[name] = Tensor(array, requires_grad=True)

        p("tok_emb", _trunc_normal(rng, (config.vocab_size, h)))
        p("pos_emb", _trunc_normal(rng, (config.l_max, h)))
        p("ln_emb_g", np.ones(h))
        p("ln_emb_b", np.zeros(h))
        for i in range(config.n_layers):
            for nm in ("wq", "wk", "wv", "wo"):
                p(f"blk{i}.{nm}", _trunc_normal(rng, (h, h)))
            for nm in ("bq", "bk", "bv", "bo"):
                p(f"blk{i}.{nm}", np.zeros(h))
            p(f"blk{i}.ln1_g", np.ones(h))
            p(f"blk{i}.ln1_b", np.zeros(h))
            p(f"blk{i}.w1", _trunc_normal(rng, (h, ff)))
            p(f"blk{i}.b1", np.zeros(ff))
            p(f"blk{i}.w2", _trunc_normal(rng, (ff, h)))
            p(f"blk{i}.b2", np.zeros(h))
            p(f"blk{i}.ln2_g", np.ones(h))
            p(f"blk{i}.ln2_b", np.zeros(h))
        p("w_start", _trunc_normal(rng, (h,)))
        p("w_end", _trunc_normal(rng, (h,)))

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def copy(self, requires_grad: bool = True) -> "BackboneModel":
        clone = BackboneModel.__new__(BackboneModel)
        clone.config = self.config
        clone.params = {k: Tensor(v.data.copy(), requires_grad=requires_grad)
                        for k, v in self.params.items()}
        return clone

    def load_state(self, other: "BackboneModel"):
        for k, v in other.params.items():
            self.params[k].data = v.data.copy()

    # -- forward ------------------------------------------------------------

    def encode_batch(self, id_lists) -> tuple[Tensor, np.ndarray]:
        """Pad, embed and run the encoder over a batch.

        Returns (B, l, h) representations and a float (B, l) validity mask.
        """
        cfg = self.config
        for ids in id_lists:
            self._check_ids(np.asarray(ids, dtype=np.int64))
        lens = [len(ids) for ids in id_lists]
        l = max(lens)
        batch = np.zeros((len(id_lists), l), dtype=np.int64)
        mask = np.zeros((len(id_lists), l))
        for i, ids in enumerate(id_lists):
            batch[i, :lens[i]] = ids
            mask[i, :lens[i]] = 1.0

        P = self.params
        x = ad.embedding(P["tok_emb"], batch) + ad.index(P["pos_emb"], slice(0, l))
        x = ad.layer_norm(x, P["ln_emb_g"], P["ln_emb_b"])
        attn_bias = Tensor(NEG_INF * (1.0 - mask)[:, None, None, :])
        for i in range(cfg.n_layers):
            x = self._block(x, i, attn_bias)
        return x, mask

    def _block(self, x: Tensor, i: int, attn_bias: Tensor) -> Tensor:
        P = self.params
        cfg = self.config
        B, l, h = x.data.shape
        nh = cfg.n_heads
        dh = h // nh

        def heads(t):
            return ad.transpose(ad.reshape(t, (B, l, nh, dh)), (0, 2, 1, 3))

        q = heads(ad.matmul(x, P[f"blk{i}.wq"]) + P[f"blk{i}.bq"])
        k = heads(ad.matmul(x, P[f"blk{i}.wk"]) + P[f"blk{i}.bk"])
        v = heads(ad.matmul(x, P[f"blk{i}.wv"]) + P[f"blk{i}.bv"])
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        probs = ad.softmax(scores + attn_bias)
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (B, l, h))
        attn_out = ad.matmul(ctx, P[f"blk{i}.wo"]) + P[f"blk{i}.bo"]
        x = ad.layer_norm(x + attn_out, P[f"blk{i}.ln1_g"], P[f"blk{i}.ln1_b"])
        ff = ad.matmul(ad.gelu(ad.matmul(x, P[f"blk{i}.w1"]) + P[f"blk{i}.b1"]),
                       P[f"blk{i}.w2"]) + P[f"blk{i}.b2"]
        return ad.layer_norm(x + ff, P[f"blk{i}.ln2_g"], P[f"blk{i}.ln2_b"])

    def _check_ids(self, ids: np.ndarray):
        if ids.ndim != 1 or ids.size < 1:
            raise ValueError("input must be a non-empty 1-d id sequence")
        if ids.size > self.config.l_max:
            raise ValueError(f"sequence length {ids.size} exceeds l_max={self.config.l_max}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(f"token id out of range for vocab {self.config.vocab_size}")

    def span_logits_batch(self, h: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Batched head; padded positions get an additive -1e9 bias."""
        bias = Tensor(NEG_INF * (1.0 - mask))
        return (ad.matmul(h, self.params["w_start"]) + bias,
                ad.matmul(h, self.params["w_end"]) + bias)

    def forward_batch(self, id_lists):
        h, mask = self.encode_batch(id_lists)
        sl, el = self.span_logits_batch(h, mask)
        return h, mask, sl, el

    # -- checkpointing ------------------------------------------------------

    def save(self, path):
        """Binary container: magic, version, JSON header, raw LE float64 arrays."""
        header = {
            "config": asdict(self.config),
            "params": [{"name": k, "shape": list(v.data.shape)}
                       for k, v in self.params.items()],
        }
        hb = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(hb)))
            f.write(hb)
            for v in self.params.values():
                f.write(np.ascontiguousarray(v.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BackboneModel":
        with open(path, "rb") as f:
            magic = f.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"not a model checkpoint: {path}")
            version, hlen = struct.unpack("<IQ", f.read(12))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            header = json.loads(f.read(hlen).decode("utf-8"))
            model = cls.__new__(cls)
            model.config = ModelConfig(**header["config"])
            model.params = {}
            for entry in header["params"]:
                shape = tuple(entry["shape"])
                n = int(np.prod(shape)) if shape else 1
                raw = f.read(8 * n)
                arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
                model.params[entry["name"]] = Tensor(arr, requires_grad=True)
        return model


# ---------------------------------------------------------------------------
# free functions on batched span logits and probabilities

def span_loss_batch(start_logits: Tensor, end_logits: Tensor,
                    y_s: np.ndarray, y_e: np.ndarray) -> Tensor:
    """Mean span cross-entropy over a batch of (B, l) logits."""
    ls = ad.take_along_last(ad.log_softmax(start_logits), y_s)
    le = ad.take_along_last(ad.log_softmax(end_logits), y_e)
    return ad.tmean(-(ls + le))


def decode_answer(p_start: np.ndarray, p_end: np.ndarray, mask: np.ndarray,
                  max_answer_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the best (i, j) by p_start[i] * p_end[j] with
    i <= j < i + max_answer_len, both inside the row's valid (mask) length.

    Inputs are (B, l); returns the (B,) start and end indices. Ties break
    toward smaller i, then smaller j (row-major argmax order).
    """
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    B, l = p_start.shape
    ii, jj = np.indices((l, l))
    band = (jj >= ii) & (jj < ii + max_answer_len)
    valid = band & (mask[:, :, None] > 0) & (mask[:, None, :] > 0)
    scores = np.where(valid, p_start[:, :, None] * p_end[:, None, :], -1.0)
    return np.divmod(scores.reshape(B, l * l).argmax(axis=1), l)
