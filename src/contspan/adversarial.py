"""Domain discriminator and the memory-vs-current minimax objective.

The discriminator labels memory representations 1 and current-domain
representations 0. Updates alternate: the discriminator maximizes the core
objective on detached representations, then the encoder minimizes it (plus
the mean-discrepancy term) through a frozen copy of the discriminator.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_FLOOR = 1e-12
PROBE_STEPS = 400
PROBE_LR = 1e-2
PROBE_HOLDOUT = 0.5  # share of each side held out to score the probe


class Discriminator:
    """Three affine layers h -> h -> h/2 -> 1 with a sigmoid output."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        h2 = max(1, hidden // 2)
        self.params: dict[str, Tensor] = {}

        def p(name, arr):
            self.params[name] = Tensor(arr, requires_grad=True)

        std = 0.05
        p("w1", rng.normal(0.0, std, (hidden, hidden)))
        p("b1", np.zeros(hidden))
        p("w2", rng.normal(0.0, std, (hidden, h2)))
        p("b2", np.zeros(h2))
        p("w3", rng.normal(0.0, std, (h2, 1)))
        p("b3", np.zeros(1))

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def frozen_params(self) -> dict[str, Tensor]:
        """Constant copies; gradients flow only to the input representations."""
        return {k: Tensor(v.data.copy()) for k, v in self.params.items()}

    def forward(self, reprs: Tensor, params: dict[str, Tensor] | None = None) -> Tensor:
        """Probability that each row of (n, h) comes from memory."""
        P = self.params if params is None else params
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


def _bce(disc: Discriminator, mem: Tensor, cur: Tensor,
         params: dict[str, Tensor] | None = None) -> Tensor:
    """-mean log D(mem) - mean log(1 - D(cur)): memory labeled 1, current 0."""
    d_mem = disc.forward(mem, params)
    d_cur = disc.forward(cur, params)
    return -ad.tmean(ad.log(d_mem, floor=LOG_FLOOR)) \
        - ad.tmean(ad.log(Tensor(1.0) - d_cur, floor=LOG_FLOOR))


def _core_loss(disc: Discriminator, mem: Tensor, cur: Tensor,
               params: dict[str, Tensor] | None) -> Tensor:
    if mem.data.shape[0] == 0 or cur.data.shape[0] == 0:
        raise ValueError("adversarial game needs non-empty memory and current sides")
    return _bce(disc, mem, cur, params) + mmd(mem, cur)


def discriminator_step(disc: Discriminator, opt: ad.Adam,
                       mem_reprs: np.ndarray, cur_reprs: np.ndarray) -> float:
    """One maximizing update on detached representations; returns L_D."""
    mem = Tensor(mem_reprs)
    cur = Tensor(cur_reprs)
    l_d = -_core_loss(disc, mem, cur, None)
    opt.zero_grad()
    ad.backward(l_d)
    opt.step()
    return l_d.item()


def encoder_adversarial_loss(disc: Discriminator, mem: Tensor, cur: Tensor) -> Tensor:
    """Encoder-side core loss through a frozen discriminator copy, so its
    gradient reaches only the representations (and the encoder above them)."""
    return _core_loss(disc, mem, cur, disc.frozen_params())


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
    bce = _bce(disc, Tensor(mem_reprs), Tensor(cur_reprs))
    opt.zero_grad()
    ad.backward(bce)
    opt.step()
    return bce.item()


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
    opt = ad.Adam(probe.parameters(), lr=PROBE_LR)
    for _ in range(PROBE_STEPS):
        _probe_step(probe, opt, mem_tr, cur_tr)
    return probe, discriminator_accuracy(probe, mem_ho, cur_ho)
