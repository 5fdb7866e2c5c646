"""Finite-difference verification of every loss used in training.

Each check perturbs one parameter tensor of a tiny model and compares the
analytic gradient of the composed loss against central differences. Used
by the `gradcheck` CLI subcommand and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import adversarial as adv
from . import distill
from .autodiff import Tensor
from .backbone import BackboneModel, ModelConfig, span_loss_batch
from .data import Sample
from .engine import FisherState, ewc_penalty, der_replay_mse
from .memory import MemoryItem

TOLERANCE = 1e-4


def _tiny_model(seed=0, vocab=12, hidden=4, layers=1, heads=2, l_max=8):
    cfg = ModelConfig(vocab_size=vocab, hidden=hidden, n_layers=layers,
                      n_heads=heads, l_max=l_max)
    return BackboneModel(cfg, ad.seeded_rng(seed))


def _param_check(model, name, loss_fn, eps=1e-5):
    """Finite-difference error of loss_fn w.r.t. one named parameter."""
    original = model.params[name]

    def f(x: Tensor) -> Tensor:
        model.params[name] = x
        try:
            return loss_fn()
        finally:
            model.params[name] = original

    return ad.finite_difference_check(f, original.detach(), eps)


def _ragged_samples(rng, model, passage_lens):
    """Assembled one-token-question samples with passages of the given
    lengths, so a batch of them carries padding."""
    vocab, out = model.config.vocab_size, []
    for n in passage_lens:
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n))
        out.append(Sample(id=str(len(out)), domain=0,
                          question_ids=[int(rng.integers(3, vocab))],
                          passage_ids=rng.integers(3, vocab, size=n).tolist(),
                          answer_start=3 + a, answer_end=3 + b)
                   .assemble(model.config.l_max))
    ids = [s.input_ids for s in out]
    return out, ids, np.array([s.answer_start for s in out]), \
        np.array([s.answer_end for s in out])


def check_span_loss(seed=0) -> float:
    model = _tiny_model(seed)
    rng = ad.seeded_rng(seed, 10)
    _, ids, y_s, y_e = _ragged_samples(rng, model, [4, 2])

    def loss():
        _, _, sl, el = model.forward_batch(ids)
        return span_loss_batch(sl, el, y_s, y_e)

    return max(_param_check(model, "w_start", loss),
               _param_check(model, "blk0.wq", loss),
               _param_check(model, "tok_emb", loss))


def check_adversarial_loss(seed=0) -> float:
    """Encoder-side minimax loss (discriminator frozen), through the encoder."""
    model = _tiny_model(seed)
    rng = ad.seeded_rng(seed, 11)
    disc = adv.Discriminator(model.config.hidden, rng)
    mem_ids = [rng.integers(0, model.config.vocab_size, size=6).tolist() for _ in range(2)]
    cur_ids = [rng.integers(0, model.config.vocab_size, size=6).tolist() for _ in range(2)]

    def loss():
        hm, _ = model.encode_batch(mem_ids)
        hc, _ = model.encode_batch(cur_ids)
        return adv.encoder_adversarial_loss(disc,
                                            ad.index(hm, (slice(None), 0)),
                                            ad.index(hc, (slice(None), 0)))

    err = max(_param_check(model, "blk0.wv", loss),
              _param_check(model, "ln_emb_g", loss))

    # also directly w.r.t. a representation, bypassing the encoder
    reprs = Tensor(rng.normal(size=(2, model.config.hidden)))

    def f(x):
        return adv.encoder_adversarial_loss(disc, x, Tensor(reprs.data + 0.3))

    return max(err, ad.finite_difference_check(f, reprs))


def check_kl_loss(seed=0) -> float:
    model = _tiny_model(seed)
    teacher = distill.snapshot_teacher(model)
    for p in teacher.params.values():
        p.data += 0.01  # make teacher and student genuinely differ
    rng = ad.seeded_rng(seed, 12)
    _, ids, _, _ = _ragged_samples(rng, model, [3, 1])
    _, _, t_sl, t_el = teacher.forward_batch(ids)

    def loss():
        _, _, sl, el = model.forward_batch(ids)
        return distill.kl_distill_loss_batch(t_sl.data, t_el.data, sl, el)

    return max(_param_check(model, "w_end", loss),
               _param_check(model, "blk0.w1", loss))


def check_ewc_penalty(seed=0) -> float:
    model = _tiny_model(seed)
    rng = ad.seeded_rng(seed, 13)
    state = FisherState(
        fisher={k: np.abs(rng.normal(size=p.data.shape)) for k, p in model.params.items()},
        anchor={k: p.data + rng.normal(scale=0.1, size=p.data.shape)
                for k, p in model.params.items()})

    def loss():
        return ewc_penalty(model, [state], lam=2.0)

    return max(_param_check(model, "w_start", loss),
               _param_check(model, "blk0.b2", loss))


def check_der_terms(seed=0) -> float:
    """DER++'s logit replay plus gold-label replay, as in a DER step."""
    model = _tiny_model(seed)
    rng = ad.seeded_rng(seed, 14)
    samples, ids, y_s, y_e = _ragged_samples(rng, model, [2, 4, 3])
    items = [MemoryItem(sample=s, origin_domain=0,
                        teacher_start_logits=rng.normal(size=len(s.input_ids)),
                        teacher_end_logits=rng.normal(size=len(s.input_ids)))
             for s in samples]

    def loss():
        _, mask, sl, el = model.forward_batch(ids)
        return der_replay_mse(items, sl, el, mask) * 0.5 \
            + span_loss_batch(sl, el, y_s, y_e) * 0.5

    return max(_param_check(model, "w_start", loss),
               _param_check(model, "blk0.wo", loss))


def check_combined_loss(seed=0) -> float:
    """Replay span loss + adversarial + distillation, as in an incremental step."""
    model = _tiny_model(seed)
    rng = ad.seeded_rng(seed, 15)
    disc = adv.Discriminator(model.config.hidden, rng)
    teacher = distill.snapshot_teacher(model)
    for p in teacher.params.values():
        p.data += 0.01
    _, ids, y_s, y_e = _ragged_samples(rng, model, [4, 2, 1, 3])
    mem = slice(2, 4)
    # teacher logits at the student batch's width, as in training
    _, _, t_sl, t_el = teacher.forward_batch(ids)

    def loss():
        h, _, sl, el = model.forward_batch(ids)
        total = span_loss_batch(sl, el, y_s, y_e)
        pooled = ad.index(h, (slice(None), 0))
        total = total + adv.encoder_adversarial_loss(
            disc, ad.index(pooled, mem), ad.index(pooled, slice(0, 2)))
        total = total + distill.kl_distill_loss_batch(
            t_sl.data[mem], t_el.data[mem], ad.index(sl, mem), ad.index(el, mem))
        return total

    return max(_param_check(model, "blk0.wq", loss),
               _param_check(model, "w_start", loss))


ALL_CHECKS = [
    ("span_loss_batch", check_span_loss),
    ("adversarial_loss", check_adversarial_loss),
    ("kl_distill", check_kl_loss),
    ("ewc_penalty", check_ewc_penalty),
    ("der_terms", check_der_terms),
    ("combined_loss", check_combined_loss),
]


def run_all(seed=0):
    """[(name, max_rel_error, passed)] for every registered check."""
    results = []
    for name, fn in ALL_CHECKS:
        err = fn(seed)
        results.append((name, err, err < TOLERANCE))
    return results
