import math

import numpy as np
import pytest

from contspan import autodiff as ad
from contspan import adversarial as adv
from contspan.autodiff import Tensor

H = 8


def make_disc(seed=0, hidden=H):
    return adv.Discriminator(hidden, ad.seeded_rng(seed))


def gelu_np(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (x + 0.044715 * x ** 3)))


def test_zero_weight_discriminator_outputs_half():
    d = make_disc()
    for t in d.params.values():
        t.data[:] = 0.0
    out = d.forward(Tensor(np.ones((3, H))))
    np.testing.assert_allclose(out.data, 0.5, atol=1e-15)


def test_forward_matches_numpy_oracle():
    d = make_disc(seed=4)
    rng = ad.seeded_rng(5)
    x = rng.normal(size=(6, H))
    h1 = gelu_np(x @ d.params["w1"].data + d.params["b1"].data)
    h2 = gelu_np(h1 @ d.params["w2"].data + d.params["b2"].data)
    want = 1.0 / (1.0 + np.exp(-(h2 @ d.params["w3"].data + d.params["b3"].data)))
    np.testing.assert_allclose(d.forward(Tensor(x)).data, want[:, 0], atol=1e-12)


def test_output_monotone_in_final_logit():
    d = make_disc(seed=1)
    x = ad.seeded_rng(2).normal(size=(1, H))
    base = d.forward(Tensor(x)).data[0]
    d.params["b3"].data += 5.0
    assert d.forward(Tensor(x)).data[0] > base


def test_discriminate_matches_batched_forward():
    d = make_disc(seed=3)
    x = ad.seeded_rng(6).normal(size=(5, H))
    batched = d.forward(Tensor(x)).data
    for i in range(5):
        single = d.forward(Tensor(x[i:i + 1])).data[0]
        assert single == pytest.approx(batched[i], abs=1e-15)


def test_mmd_zero_iff_means_match():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[3.0, 4.0], [1.0, 2.0]]))
    assert adv.mmd(a, b).item() == pytest.approx(0.0, abs=1e-15)


def test_mmd_unit_case():
    a = Tensor(np.array([[1.0, 0.0]]))
    b = Tensor(np.array([[0.0, 0.0]]))
    assert adv.mmd(a, b).item() == pytest.approx(1.0, abs=1e-15)


def test_mmd_matches_two_pass_oracle_and_is_nonnegative():
    rng = ad.seeded_rng(7)
    for _ in range(20):
        a = rng.normal(size=(5, H))
        b = rng.normal(size=(7, H))
        got = adv.mmd(Tensor(a), Tensor(b)).item()
        want = float(((a.mean(axis=0) - b.mean(axis=0)) ** 2).sum())
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= 0.0


class _ConstDisc(adv.Discriminator):
    """Stub returning a fixed probability per side, keyed by row sign."""

    def __init__(self, p_mem, p_cur):
        super().__init__(2, ad.seeded_rng(0))
        self.p_mem, self.p_cur = p_mem, p_cur

    def forward(self, reprs, params=None):
        vals = np.where(reprs.data[:, 0] > 0, self.p_mem, self.p_cur)
        return Tensor(vals)


MEM = np.array([[1.0, 0.0]])
CUR = np.array([[-1.0, 0.0]])


def game_losses(disc):
    """(L_D, L_T) from the two halves of one game alternation."""
    l_d = adv.discriminator_step(disc, ad.Adam(disc.parameters()), MEM, CUR)
    return l_d, adv.encoder_adversarial_loss(disc, Tensor(MEM), Tensor(CUR)).item()


def test_core_loss_values_with_stubbed_outputs():
    d_mmd = adv.mmd(Tensor(MEM), Tensor(CUR)).item()

    # an undecided discriminator: core = 2 log 2 + mmd, and L_D = -core
    l_d, l_t = game_losses(_ConstDisc(0.5, 0.5))
    assert l_t == pytest.approx(2 * math.log(2) + d_mmd, abs=1e-12)
    assert l_d == pytest.approx(-l_t, abs=1e-12)

    # a near-perfect discriminator drives the core toward the mmd floor
    for eps in (0.1, 0.01):
        _, l_t = game_losses(_ConstDisc(1 - eps, eps))
        assert l_t == pytest.approx(-2 * math.log(1 - eps) + d_mmd, abs=1e-12)
    _, l_strong = game_losses(_ConstDisc(0.99, 0.01))
    _, l_weak = game_losses(_ConstDisc(0.9, 0.1))
    assert l_strong < l_weak


def test_adversarial_batch_validation():
    d = make_disc()
    empty, one = np.zeros((0, H)), np.zeros((1, H))
    with pytest.raises(ValueError, match="non-empty"):
        adv.encoder_adversarial_loss(d, Tensor(empty), Tensor(one))
    with pytest.raises(ValueError, match="non-empty"):
        adv.discriminator_step(d, ad.Adam(d.parameters()), one, empty)


def test_log_floor_keeps_core_finite():
    l_d, l_t = game_losses(_ConstDisc(0.0, 1.0))
    assert np.isfinite(l_t) and np.isfinite(l_d)


def test_discriminator_step_decreases_l_d():
    rng = ad.seeded_rng(9)
    d = make_disc(seed=10)
    opt = ad.Adam(d.parameters(), lr=1e-2)
    mem = rng.normal(size=(16, H)) + 2.0
    cur = rng.normal(size=(16, H)) - 2.0
    first = adv.discriminator_step(d, opt, mem, cur)
    for _ in range(30):
        last = adv.discriminator_step(d, opt, mem, cur)
    assert last < first


def test_minimax_step_parameter_isolation():
    rng = ad.seeded_rng(11)
    d = make_disc(seed=12)
    opt = ad.Adam(d.parameters(), lr=1e-3)
    mem = Tensor(rng.normal(size=(4, H)), requires_grad=True)
    cur = Tensor(rng.normal(size=(4, H)), requires_grad=True)

    # the discriminator's update runs on detached copies of the representations
    start = {k: v.data.copy() for k, v in d.params.items()}
    adv.discriminator_step(d, opt, mem.data, cur.data)
    assert any(not np.array_equal(v.data, start[k]) for k, v in d.params.items())
    assert not mem.grad.any() and not cur.grad.any()

    # the encoder's loss runs through a frozen copy of the discriminator
    l_t = adv.encoder_adversarial_loss(d, mem, cur)
    before = {k: v.data.copy() for k, v in d.params.items()}
    opt.zero_grad()
    ad.backward(l_t)
    for k, v in d.params.items():
        np.testing.assert_array_equal(v.data, before[k])
        assert not v.grad.any()
    assert mem.grad.any() and cur.grad.any()


def test_alternating_game_reduces_separability():
    """On two shifted clusters, a probe separates well; the minimax does not."""
    rng = ad.seeded_rng(13)
    mem = Tensor(rng.normal(size=(32, H)) + 1.5, requires_grad=True)
    cur = Tensor(rng.normal(size=(32, H)) - 1.5, requires_grad=True)

    _, probe_acc = adv.train_probe_discriminator(H, mem.data.copy(), cur.data.copy(),
                                                 ad.seeded_rng(14))
    assert probe_acc > 0.9

    d = make_disc(seed=15)
    d_opt = ad.Adam(d.parameters(), lr=1e-2)
    rep_opt = ad.Adam([mem, cur], lr=1e-1)
    for _ in range(200):
        adv.discriminator_step(d, d_opt, mem.data, cur.data)
        l_t = adv.encoder_adversarial_loss(d, mem, cur)
        rep_opt.zero_grad()
        ad.backward(l_t)
        rep_opt.step()
    _, post_acc = adv.train_probe_discriminator(H, mem.data.copy(), cur.data.copy(),
                                                 ad.seeded_rng(16))
    assert post_acc <= 0.65


def test_discriminator_accuracy_threshold():
    d = _ConstDisc(0.9, 0.2)
    mem = np.ones((4, 2))
    cur = -np.ones((6, 2))
    assert adv.discriminator_accuracy(d, mem, cur) == 1.0
    flipped = adv.discriminator_accuracy(d, cur, mem)
    assert flipped == 0.0
    for empty in ((mem[:0], cur), (mem, cur[:0])):
        with pytest.raises(ValueError, match="both sides"):
            adv.discriminator_accuracy(d, *empty)
