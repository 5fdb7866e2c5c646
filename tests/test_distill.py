import math

import numpy as np
import pytest

from contspan import autodiff as ad
from contspan import distill
from contspan.autodiff import Tensor
from contspan.backbone import BackboneModel, ModelConfig


def make_model(seed=0):
    cfg = ModelConfig(vocab_size=20, hidden=16, n_layers=1, n_heads=2, l_max=16)
    return BackboneModel(cfg, ad.seeded_rng(seed))


def kl(t, s, temperature=1.0):
    """The batched loss on one row, same logits on the start and end heads."""
    t = np.asarray(t, float)[None]
    s = s if isinstance(s, Tensor) else Tensor(np.asarray(s, float)[None])
    return distill.kl_distill_loss_batch(t, t, s, s, temperature)


def test_snapshot_is_isolated_from_student():
    student = make_model(seed=1)
    teacher = distill.snapshot_teacher(student)
    ids = [[0, 4, 7, 9]]
    before = teacher.encode_batch(ids)[0].data.copy()
    np.testing.assert_array_equal(before, student.encode_batch(ids)[0].data)
    for p in student.params.values():
        p.data += 0.1
    np.testing.assert_array_equal(teacher.encode_batch(ids)[0].data, before)


def test_teacher_receives_no_gradient():
    student = make_model(seed=2)
    teacher = distill.snapshot_teacher(student)
    # not a uniform shift: layer-normed rows sum to ~0, so that would barely move
    # the end logits' softmax
    student.params["w_end"].data += np.linspace(-0.05, 0.05, 16)
    ids = [[0, 3, 5, 6, 8], [0, 4, 2]]
    _, _, t_sl, t_el = teacher.forward_batch(ids)
    _, _, s_sl, s_el = student.forward_batch(ids)
    loss = distill.kl_distill_loss_batch(t_sl.data, t_el.data, s_sl, s_el)
    assert loss.item() > 0.0
    ad.backward(loss)
    assert all(not p.requires_grad for p in teacher.params.values())
    assert student.params["w_end"].grad.any()


def test_identical_logits_give_zero():
    rng = ad.seeded_rng(3)
    sl = rng.normal(size=(2, 6))
    el = rng.normal(size=(2, 6))
    assert distill.kl_distill_loss_batch(sl, el, Tensor(sl.copy()), Tensor(el.copy())) \
        .item() == pytest.approx(0.0, abs=1e-12)


def test_uniform_teacher_vs_peaked_student_matches_oracle():
    t_logits = np.zeros(4)
    s_logits = np.array([10.0, 0.0, 0.0, 0.0])
    p = np.exp(s_logits) / np.exp(s_logits).sum()
    want = sum(0.25 * math.log(0.25 / p[i]) for i in range(4))
    assert kl(t_logits, s_logits).item() == pytest.approx(2 * want, abs=1e-10)


def test_kl_nonnegative_on_random_pairs():
    rng = ad.seeded_rng(4)
    for _ in range(1000):
        l = int(rng.integers(2, 12))
        t = rng.normal(size=l) * 3
        s = rng.normal(size=l) * 3
        assert kl(t, s).item() >= 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        kl(np.zeros(4), np.zeros(5))
    # a one-row teacher must not broadcast over a larger student batch
    with pytest.raises(ValueError, match="length mismatch"):
        distill.kl_distill_loss_batch(np.zeros((1, 4)), np.zeros((1, 4)),
                                      Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))


def test_temperature_softens_the_loss():
    t = np.array([4.0, 0.0, 0.0])
    s = np.array([0.0, 4.0, 0.0])
    sharp = kl(t, s, temperature=1.0)
    soft = kl(t, s, temperature=4.0)
    assert soft.item() < sharp.item()


def test_batched_form_averages_singles():
    rng = ad.seeded_rng(5)
    tl = rng.normal(size=(3, 5))
    sl = rng.normal(size=(3, 5))
    singles = [kl(tl[i], sl[i]).item() for i in range(3)]
    got = distill.kl_distill_loss_batch(tl, tl, Tensor(sl), Tensor(sl))
    assert got.item() == pytest.approx(np.mean(singles), abs=1e-12)


def test_gradient_pulls_student_toward_teacher():
    t = np.array([2.0, -1.0, 0.5, 0.0])
    student = Tensor(np.zeros((1, 4)), requires_grad=True)
    loss = kl(t, student)
    ad.backward(loss)
    before = loss.item()
    after = kl(t, Tensor(student.data - 0.5 * student.grad)).item()
    assert after < before
