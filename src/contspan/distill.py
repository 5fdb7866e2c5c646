"""Distillation of span logits against a frozen previous-step snapshot.

The snapshot ("teacher") never records gradients; the KL term pulls the
student's start/end softmaxes toward the teacher's on memory samples only.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BackboneModel


def snapshot_teacher(model: BackboneModel) -> BackboneModel:
    """Deep, detached copy; forward passes through it build no graph."""
    return model.copy(requires_grad=False)


def _kl_term(teacher_logits: np.ndarray, student_logits: Tensor,
             temperature: float) -> Tensor:
    if teacher_logits.shape != student_logits.data.shape:
        raise ValueError(f"length mismatch: teacher {teacher_logits.shape} vs "
                         f"student {student_logits.data.shape}")
    t = ad.softmax(Tensor(teacher_logits / temperature)).data
    log_t = np.log(np.maximum(t, 1e-300))
    log_s = ad.log_softmax(student_logits * (1.0 / temperature))
    # sum over positions, mean over the batch
    return ad.tmean(ad.tsum(Tensor(t) * (Tensor(log_t) - log_s), axis=-1))


def kl_distill_loss_batch(teacher_sl: np.ndarray, teacher_el: np.ndarray,
                          student_sl: Tensor, student_el: Tensor,
                          temperature: float = 1.0) -> Tensor:
    """KL(teacher || student) on start plus end softmaxes over (B, l) logit
    arrays, averaged over the batch; the teacher side is constant."""
    return (_kl_term(teacher_sl, student_sl, temperature)
            + _kl_term(teacher_el, student_el, temperature))
