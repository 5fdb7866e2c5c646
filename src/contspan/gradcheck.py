"""Finite-difference verification of every loss used in training.

Each check perturbs one parameter tensor of a tiny model (or, for the EWC
penalty, which reads it, the whole flat parameter vector) and compares the
analytic gradient of the composed loss against central differences. Used
by the `gradcheck` CLI subcommand and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import adversarial as adv
from . import distill
from .autodiff import Tensor
from .backbone import BackboneModel, ModelConfig
from .data import Sample
from .engine import FisherState, adversarial_term, der_replay_loss, distill_term, \
    ewc_penalty, gold_span_loss, span_loss
from .memory import MemoryItem

TOLERANCE = 1e-4
SEED = 0
TINY = ModelConfig(vocab_size=12, hidden=4, n_layers=1, n_heads=2, l_max=8)


def _tiny_model():
    return BackboneModel(TINY, ad.seeded_rng(SEED))


def _param_check(model, name, loss_fn):
    """Finite-difference error of loss_fn w.r.t. one named parameter, or
    w.r.t. the flat parameter vector for name "flat"."""
    held = vars(model) if name == "flat" else model.params
    original = held[name]

    def f(x: Tensor) -> Tensor:
        held[name] = x
        try:
            return loss_fn()
        finally:
            held[name] = original

    return ad.finite_difference_check(f, original)


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
    return out, [s.input_ids for s in out]


def check_span_loss() -> float:
    model = _tiny_model()
    rng = ad.seeded_rng(SEED, 10)
    samples, _ = _ragged_samples(rng, model, [4, 2])

    def loss():
        return span_loss(model, samples)

    return max(_param_check(model, "w_start", loss),
               _param_check(model, "blk0.wq", loss),
               _param_check(model, "tok_emb", loss))


def check_adversarial_loss() -> float:
    """Encoder-side game loss (discriminator frozen) of a ragged mixed batch,
    through the encoder and directly w.r.t. the encodings."""
    model = _tiny_model()
    rng = ad.seeded_rng(SEED, 11)
    disc = adv.Discriminator(model.config.hidden, rng)
    _, ids = _ragged_samples(rng, model, [4, 2, 1, 3])

    def loss():
        h, _, _, _ = model.forward_batch(ids)
        return adversarial_term(disc, h, 2)

    err = max(_param_check(model, "blk0.wv", loss),
              _param_check(model, "ln_emb_g", loss))
    h = Tensor(rng.normal(size=(4, 3, model.config.hidden)))
    return max(err, ad.finite_difference_check(lambda x: adversarial_term(disc, x, 2), h))


def check_kl_loss() -> float:
    """Distillation on a ragged mixed batch whose memory rows are shorter
    than its current row, so the teacher's logits are padded."""
    model = _tiny_model()
    teacher = distill.snapshot_teacher(model)
    teacher.flat.data += 0.01  # make teacher and student genuinely differ
    rng = ad.seeded_rng(SEED, 12)
    _, ids = _ragged_samples(rng, model, [3, 1, 2])

    def loss():
        _, _, sl, el = model.forward_batch(ids)
        return distill_term(teacher, ids[1:], sl, el)

    return max(_param_check(model, "w_end", loss),
               _param_check(model, "blk0.w1", loss))


def check_ewc_penalty() -> float:
    model = _tiny_model()
    rng = ad.seeded_rng(SEED, 13)
    n = model.flat.data.size
    state = FisherState(fisher=np.abs(rng.normal(size=n)),
                        anchor=model.flat.data + rng.normal(scale=0.1, size=n))

    def loss():
        return ewc_penalty(model, [state], lam=2.0)

    return _param_check(model, "flat", loss)


def check_der_terms() -> float:
    """DER++'s logit replay plus gold-label replay on ragged memory items."""
    model = _tiny_model()
    rng = ad.seeded_rng(SEED, 14)
    samples, _ = _ragged_samples(rng, model, [2, 4, 3])
    items = [MemoryItem(sample=s,
                        teacher_start_logits=rng.normal(size=len(s.input_ids)),
                        teacher_end_logits=rng.normal(size=len(s.input_ids)))
             for s in samples]

    def loss():
        return der_replay_loss(model, items, beta=0.5)

    return max(_param_check(model, "w_start", loss),
               _param_check(model, "blk0.wo", loss))


def check_combined_loss() -> float:
    """Span loss + adversarial + distillation on a ragged mixed batch whose
    last two rows are memory, as in an incremental step."""
    model = _tiny_model()
    rng = ad.seeded_rng(SEED, 15)
    disc = adv.Discriminator(model.config.hidden, rng)
    teacher = distill.snapshot_teacher(model)
    teacher.flat.data += 0.01
    samples, ids = _ragged_samples(rng, model, [4, 2, 1, 3])

    def loss():
        h, _, sl, el = model.forward_batch(ids)
        return gold_span_loss(sl, el, samples) + adversarial_term(disc, h, 2) \
            + distill_term(teacher, ids[2:], sl, el)

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


def run_all():
    """[(name, max_rel_error, passed)] for every registered check."""
    results = []
    for name, fn in ALL_CHECKS:
        err = fn()
        results.append((name, err, err < TOLERANCE))
    return results
