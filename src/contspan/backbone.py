"""Span-extraction backbone: transformer encoder plus start/end heads.

Desk-scale by default (h=64, 2 blocks, 2 heads, l_max=64). Every pass is
batched and returns rows padded to the longest, whose padded positions carry
an additive -1e9 bias in attention and in the span heads. Training and
forward-only passes share one encoder path: the per-token layers run on the
packed valid tokens (unpadding, Krell et al. 2021), padded only around
attention and for the output, with the padded pass's values and gradients.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .metrics import atomic_write, parse_json

CHECKPOINT_MAGIC = b"CSPANCKP"
CHECKPOINT_VERSION = 1

NEG_INF = -1e9  # additive mask value; finite so tensors stay NaN/Inf-free
EVAL_BATCH = 64  # rows per chunk of a forward-only pass
# Padded tokens (rows x width) from which a forward-only pass runs as two
# half-batches. Measured on a 2-vCPU host (one BLAS thread), desk model, rows
# of 0.55-1.0 x width tokens, split over unsplit time: width 64 gains from 6
# rows (384 tokens, 0.82) and loses at 2-4 (1.07-1.5); width 48 gains from 6
# rows (288, 0.92); width 32 loses up to 32 rows (1024, 1.01) and gains at 64
# (0.60). The distillation teacher's 4-row batches (at most 256) stay whole.
SPLIT_TOKENS = 1024
INIT_STD = 0.02  # weight init scale


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 64
    n_layers: int = 2
    n_heads: int = 2
    l_max: int = 64
    ff_mult: int = 4

    def __post_init__(self):
        if bad := [k for k, v in asdict(self).items() if type(v) is not int or v < 1]:
            raise ValueError(f"{bad[0]} must be an int >= 1, got {getattr(self, bad[0])!r}")
        if self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden={self.hidden} not divisible by n_heads={self.n_heads}")


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) with redraws outside +-2 INIT_STD."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2.0 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * INIT_STD
    return out


def param_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float | None]]:
    """Each parameter's name, shape and initial fill (None: a truncated
    normal draw), in draw and checkpoint order."""
    h, ff = config.hidden, config.ff_mult * config.hidden
    spec = [("tok_emb", (config.vocab_size, h), None), ("pos_emb", (config.l_max, h), None),
            ("ln_emb_g", (h,), 1.0), ("ln_emb_b", (h,), 0.0)]
    for i in range(config.n_layers):
        spec += [(f"blk{i}.{nm}", (h, h), None) for nm in ("wq", "wk", "wv", "wo")]
        spec += [(f"blk{i}.{nm}", (h,), 0.0) for nm in ("bq", "bk", "bv", "bo")]
        spec += [(f"blk{i}.{nm}", shape, fill) for nm, shape, fill in (
            ("ln1_g", (h,), 1.0), ("ln1_b", (h,), 0.0), ("w1", (h, ff), None),
            ("b1", (ff,), 0.0), ("w2", (ff, h), None), ("b2", (h,), 0.0),
            ("ln2_g", (h,), 1.0), ("ln2_b", (h,), 0.0))]
    return spec + [("w_start", (h,), None), ("w_end", (h,), None)]


@cache
def _worker() -> ThreadPoolExecutor:
    """The one thread that runs the second half of a split forward-only pass."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="contspan-encode")


class BackboneModel:
    """Encoder parameters plus span heads, all as named requires_grad tensors."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params = {name: Tensor(_trunc_normal(rng, shape) if fill is None
                                    else np.full(shape, fill), requires_grad=True)
                       for name, shape, fill in param_spec(config)}

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def copy(self) -> "BackboneModel":
        """Untracked copy: forward passes through it record no tape."""
        clone = BackboneModel.__new__(BackboneModel)
        clone.config = self.config
        clone.params = {k: Tensor(v.data.copy()) for k, v in self.params.items()}
        return clone

    # -- forward ------------------------------------------------------------

    def encode_batch(self, id_lists) -> tuple[Tensor, np.ndarray]:
        """Pad, embed and run the encoder over a batch.

        Returns (B, l, h) representations, zero at padded positions, and a
        float (B, l) validity mask. The per-token layers (embeddings, layer
        norms, linear layers, gelu, residual adds) run on the packed
        (n_valid, h) rows of the valid tokens alone, scattered to (B, l, h)
        only around attention. Values and gradients at valid positions equal
        those of the padded pass bit for bit (see ad.linear) when the longest
        row has at least 2 tokens, as every assembled input (at least 5) has.

        An untracked pass (one through copy()) of at least SPLIT_TOKENS
        padded tokens runs as two row-halves, the second on one worker
        thread, while numpy releases the GIL in BLAS and its large loops.
        Each half is padded to the whole batch's width l, so attention's
        softmax sums over the same l positions, and every row's bytes are
        those of the unsplit pass. A tracked pass never splits: its weight
        and bias gradients sum over all sequences in order.
        """
        l = max(len(ids) for ids in id_lists)
        half = len(id_lists) // 2
        if half == 0 or len(id_lists) * l < SPLIT_TOKENS \
                or any(p.requires_grad for p in self.params.values()):
            x, mask = self._encode(id_lists, l)
        else:
            rest = _worker().submit(self._encode, id_lists[half:], l)
            try:
                x0, mask0 = self._encode(id_lists[:half], l)
            finally:
                rest.exception()  # wait for the worker's half however this one ends
            x1, mask1 = rest.result()
            x, mask = Tensor(np.concatenate([x0.data, x1.data])), np.concatenate([mask0, mask1])
        return ad.unpack(x, mask > 0), mask

    def _encode(self, id_lists, l: int) -> tuple[Tensor, np.ndarray]:
        """The encoder over id_lists padded to width l: the packed rows of
        the valid tokens, in row-major order, and the (B, l) mask."""
        for ids in id_lists:
            self._check_ids(np.asarray(ids, dtype=np.int64))
        batch = np.zeros((len(id_lists), l), dtype=np.int64)
        mask = np.zeros((len(id_lists), l))
        for i, ids in enumerate(id_lists):
            batch[i, :len(ids)] = ids
            mask[i, :len(ids)] = 1.0

        P = self.params
        valid = mask > 0
        x = ad.embedding(P["tok_emb"], batch[valid]) \
            + ad.embedding(P["pos_emb"], np.nonzero(valid)[1])
        x = ad.layer_norm(x, P["ln_emb_g"], P["ln_emb_b"])
        attn_bias = NEG_INF * (1.0 - mask)[:, None, None, :]
        for i in range(self.config.n_layers):
            x = self._block(x, i, attn_bias, valid)
        return x, mask

    def _block(self, x: Tensor, i: int, attn_bias: np.ndarray, valid: np.ndarray) -> Tensor:
        """One encoder block on the packed rows of the (B, l) boolean mask valid."""
        P = self.params

        def lin(t, nm, padded=False):
            return ad.linear(t, P[f"blk{i}.w{nm}"], P[f"blk{i}.b{nm}"], valid, padded)

        ctx = ad.attention(*(lin(x, nm, padded=True) for nm in "qkv"), self.config.n_heads,
                           attn_bias, valid)
        x = ad.layer_norm(x + lin(ctx, "o"), P[f"blk{i}.ln1_g"], P[f"blk{i}.ln1_b"])
        ff = lin(ad.gelu(lin(x, "1")), "2")
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

    def forward_chunks(self, id_lists):
        """Forward-only passes over id_lists, EVAL_BATCH rows at a time.

        Runs through one untracked copy, so no tape is recorded, the encoder
        runs on the packed valid tokens, and a chunk of at least SPLIT_TOKENS
        padded tokens runs as two half-batches on two threads (see
        encode_batch). Yields (rows, h, mask, sl, el) per chunk, rows being
        the chunk's slice of id_lists.
        """
        model = self.copy()
        for lo in range(0, len(id_lists), EVAL_BATCH):
            rows = slice(lo, lo + EVAL_BATCH)
            yield (rows, *model.forward_batch(id_lists[rows]))

    # -- checkpointing ------------------------------------------------------

    def save(self, path):
        """Binary container: magic, version, JSON header, raw LE float64 arrays."""
        header = {
            "config": asdict(self.config),
            "params": [{"name": k, "shape": list(v.data.shape)}
                       for k, v in self.params.items()],
        }
        hb = json.dumps(header, sort_keys=True).encode("utf-8")
        with atomic_write(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(hb)))
            f.write(hb)
            for v in self.params.values():
                f.write(np.ascontiguousarray(v.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BackboneModel":
        """Read a checkpoint, checking its header and size before allocating."""
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size

            def read(n):
                if n > size - f.tell():
                    raise ValueError(f"truncated checkpoint: {path}")
                return f.read(n)

            magic = f.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"not a model checkpoint: {path}")
            version, hlen = struct.unpack("<IQ", read(12))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            header = parse_json(read(hlen), path)
            try:
                config = ModelConfig(**header["config"])
                entries = [(e["name"], tuple(map(operator.index, e["shape"])))
                           for e in header["params"]]
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"malformed checkpoint header: {path} ({e!r})") from None
            if entries != [(name, shape) for name, shape, _ in param_spec(config)]:
                raise ValueError(f"malformed checkpoint header: {path} (params do not fit config)")
            sizes = [math.prod(shape) for _, shape in entries]
            parts = np.split(np.frombuffer(read(8 * sum(sizes)), dtype="<f8"),
                             np.cumsum(sizes)[:-1])
        model = cls.__new__(cls)
        model.config = config
        model.params = {name: Tensor(part.reshape(shape).copy(), requires_grad=True)
                        for (name, shape), part in zip(entries, parts)}
        return model


# ---------------------------------------------------------------------------
# free functions on batched span logits and probabilities

def span_loss_batch(start_logits: Tensor, end_logits: Tensor,
                    y_s: np.ndarray, y_e: np.ndarray) -> Tensor:
    """Mean span cross-entropy over a batch of (B, l) logits."""
    ls = ad.take_along_last(ad.log_softmax(start_logits), y_s)
    le = ad.take_along_last(ad.log_softmax(end_logits), y_e)
    return ad.tmean(-(ls + le))


MAX_ANSWER_LEN = 8  # longest answer span, in tokens, that evaluation decodes


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
