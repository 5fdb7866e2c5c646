"""Domain discriminator and the memory-vs-current minimax objective.

The discriminator labels memory representations 1 and current-domain
representations 0. Updates alternate: the discriminator maximizes the core
objective on detached representations, then the encoder minimizes it (plus
the mean-discrepancy term) through disc.copy(), a frozen untracked copy. The
discriminator, the probe and the encoder share one model base
(autodiff.FlatModel), and every update of each is one Adam.update.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_FLOOR = 1e-12
PROBE_STEPS = 400
PROBE_LR = 1e-2
PROBE_HOLDOUT = 0.5  # share of each side held out to score the probe


class Discriminator(ad.FlatModel):
    """Three affine layers h -> h -> h/2 -> 1 with a sigmoid output."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        h2, std = max(1, hidden // 2), 0.05
        init = {"w1": rng.normal(0.0, std, (hidden, hidden)), "b1": np.zeros(hidden),
                "w2": rng.normal(0.0, std, (hidden, h2)), "b2": np.zeros(h2),
                "w3": rng.normal(0.0, std, (h2, 1)), "b3": np.zeros(1)}
        super().__init__(np.concatenate([a.ravel() for a in init.values()]),
                         [(k, a.shape) for k, a in init.items()])

    def forward(self, reprs: Tensor) -> Tensor:
        """Probability that each row of (n, h) comes from memory."""
        P = self.params
        x = ad.gelu(ad.matmul(reprs, P["w1"]) + P["b1"])
        x = ad.gelu(ad.matmul(x, P["w2"]) + P["b2"])
        logit = ad.matmul(x, P["w3"]) + P["b3"]
        return ad.sigmoid(ad.reshape(logit, (reprs.data.shape[0],)))


def mmd(memory_reprs: Tensor, current_reprs: Tensor) -> Tensor:
    """Linear-kernel MMD: squared norm of the difference of batch means."""
    if memory_reprs.data.shape[0] == 0 or current_reprs.data.shape[0] == 0:
        raise ValueError("mmd requires non-empty representation sets")
    diff = ad.tmean(memory_reprs, axis=0) - ad.tmean(current_reprs, axis=0)
    return ad.tsum(ad.square(diff))


def _bce(disc: Discriminator, mem: Tensor, cur: Tensor) -> Tensor:
    """-mean log D(mem) - mean log(1 - D(cur)): memory labeled 1, current 0."""
    d_mem = disc.forward(mem)
    d_cur = disc.forward(cur)
    return -ad.tmean(ad.log(d_mem, floor=LOG_FLOOR)) \
        - ad.tmean(ad.log(Tensor(1.0) - d_cur, floor=LOG_FLOOR))


def _core_loss(disc: Discriminator, mem: Tensor, cur: Tensor) -> Tensor:
    if mem.data.shape[0] == 0 or cur.data.shape[0] == 0:
        raise ValueError("adversarial game needs non-empty memory and current sides")
    return _bce(disc, mem, cur) + mmd(mem, cur)


def discriminator_step(disc: Discriminator, opt: ad.Adam,
                       mem_reprs: np.ndarray, cur_reprs: np.ndarray) -> float:
    """One maximizing update on detached representations; returns L_D."""
    return opt.update(-_core_loss(disc, Tensor(mem_reprs), Tensor(cur_reprs)))


def encoder_adversarial_loss(disc: Discriminator, mem: Tensor, cur: Tensor) -> Tensor:
    """Encoder-side core loss through disc.copy(), untracked and sharing no
    memory with disc: its gradient reaches only the representations (and the
    encoder above them), never disc's own gradient or parameters."""
    return _core_loss(disc.copy(), mem, cur)


def discriminator_accuracy(disc: Discriminator, mem_reprs: np.ndarray,
                           cur_reprs: np.ndarray) -> float:
    """Classification accuracy at threshold 0.5, memory labeled positive."""
    if len(mem_reprs) == 0 or len(cur_reprs) == 0:
        raise ValueError("discriminator accuracy needs rows on both sides")
    p_mem = disc.forward(Tensor(mem_reprs)).data
    p_cur = disc.forward(Tensor(cur_reprs)).data
    correct = float((p_mem > 0.5).sum() + (p_cur <= 0.5).sum())
    return correct / (p_mem.size + p_cur.size)


def _probe_step(disc: Discriminator, opt: ad.Adam,
                mem_reprs: np.ndarray, cur_reprs: np.ndarray) -> float:
    """Plain classification update: memory toward 1, current toward 0.

    This is the ordinary BCE direction, not the game's L_D, which per the
    minimax sign convention trains the discriminator against these labels.
    """
    return opt.update(_bce(disc, Tensor(mem_reprs), Tensor(cur_reprs)))


def train_probe_discriminator(hidden: int, mem_reprs: np.ndarray, cur_reprs: np.ndarray,
                              rng: np.random.Generator):
    """Fit a fresh discriminator on half the data, report held-out accuracy.

    Used to check whether a representation space separates memory from
    current-domain inputs at all (the non-adversarial reference point).
    """
    def split(arr):
        idx = rng.permutation(arr.shape[0])
        cut = max(1, int(round(arr.shape[0] * (1.0 - PROBE_HOLDOUT))))
        return arr[idx[:cut]], arr[idx[cut:]]

    mem_tr, mem_ho = split(mem_reprs)
    cur_tr, cur_ho = split(cur_reprs)
    probe = Discriminator(hidden, rng)
    opt = ad.Adam(probe.flat, lr=PROBE_LR)
    for _ in range(PROBE_STEPS):
        _probe_step(probe, opt, mem_tr, cur_tr)
    return probe, discriminator_accuracy(probe, mem_ho, cur_ho)
