"""One flat parameter vector per model: the named parameters, and their
gradients, are views into one data vector and one gradient vector.

The per-tensor Adam loop, A-GEM's concatenate/project/split round trip,
the hand-written zero/backward/hook/step sequence and EWC's per-parameter
penalty terms, which the flat vector and Adam.update replaced, live on here
as oracles: the code that replaced them must equal them bit for bit (the
penalty's value, summed in another order, to 1e-12 relative).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from contspan import adversarial as adv
from contspan import autodiff as ad
from contspan import distill
from contspan import engine as eng
from contspan import gradcheck
from contspan.autodiff import ADAM_B1, ADAM_B2, ADAM_EPS, Tensor
from contspan.backbone import BackboneModel, ModelConfig, span_loss_batch
from contspan.data import GenConfig, generate_cdaq_stream
from contspan.engine import ContinualConfig, ContinualEngine, agem_project, \
    agem_project_grad, span_loss

DESK = ModelConfig(vocab_size=200, hidden=64, n_layers=2, n_heads=2, l_max=64)


class PerTensorAdam:
    """The Adam step as one loop over separate parameter arrays, as it ran
    before the flat vector: the oracle of ad.Adam."""

    def __init__(self, arrays, lr):
        self.data = [a.copy() for a in arrays]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for p, g, m, v in zip(self.data, grads, self.m, self.v):
            buf = g * (1.0 - ADAM_B1)
            m *= ADAM_B1
            m += buf
            np.multiply(g, 1.0 - ADAM_B2, out=buf)
            buf *= g
            v *= ADAM_B2
            v += buf
            np.divide(m, bc1, out=buf)
            vhat = v / bc2
            np.sqrt(vhat, out=vhat)
            vhat += ADAM_EPS
            buf *= self.lr
            buf /= vhat
            p -= buf


def _desk_loss(rng):
    model = BackboneModel(DESK, rng)
    ids = [rng.integers(0, DESK.vocab_size, size=n) for n in (64, 41, 17, 5)]
    y_s = np.array([3, 40, 0, 2])
    y_e = np.array([9, 40, 16, 4])

    def loss():
        _, _, sl, el = model.forward_batch(ids)
        return span_loss_batch(sl, el, y_s, y_e)

    return model, loss


def _disc_loss(rng):
    disc = adv.Discriminator(DESK.hidden, rng)
    mem, cur = rng.normal(size=(8, DESK.hidden)) + 0.5, rng.normal(size=(6, DESK.hidden))
    return disc, lambda: adv._bce(disc, Tensor(mem), Tensor(cur))


@pytest.mark.parametrize("owner, n_tensors", [(_desk_loss, 38), (_disc_loss, 6)],
                         ids=["desk_model", "discriminator"])
def test_flat_adam_equals_the_per_tensor_loop(owner, n_tensors):
    """Four Adam steps on real gradients: every parameter and both moments
    equal the per-tensor loop's bit for bit after each step."""
    model, loss = owner(ad.seeded_rng(21))
    params = list(model.params.values())
    assert len(params) == n_tensors
    start = model.flat.data.copy()
    ref = PerTensorAdam([p.data for p in params], lr=3e-3)
    opt = ad.Adam(model.flat, lr=3e-3)
    for _ in range(4):
        grads = []
        opt.update(loss(), lambda: grads.extend(p.grad.copy() for p in params))
        assert all(g.any() for g in grads[-2:])
        ref.step(grads)
        for i, (p, want) in enumerate(zip(params, ref.data)):
            np.testing.assert_array_equal(p.data, want, err_msg=str(i))
        np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
        np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))
    assert not np.array_equal(model.flat.data, start)


def reference_update(opt, loss, grad_hook=None):
    """The zero/backward/hook/step sequence that _fit, discriminator_step and
    _probe_step each wrote out before Adam.update: the oracle of
    Adam.update."""
    opt.flat.grad.fill(0.0)
    ad.backward(loss)
    if grad_hook is not None:
        grad_hook()
    opt.step()
    return loss.item()


def assert_same_adam(opt, ref):
    for a, b in ((opt.flat.data, ref.flat.data), (opt.m, ref.m), (opt.v, ref.v)):
        assert a.tobytes() == b.tobytes()


def test_adam_update_equals_the_written_out_sequence_with_an_agem_hook():
    """Three updates of the desk model with A-GEM's projection as the hook:
    the loss, the parameters and both moments equal the oracle's bit for
    bit, and the projection acts."""
    stream = generate_cdaq_stream(GenConfig(setting="cdaq", n_domains=1, train_size=6,
                                            test_size=1, vocab_size=DESK.vocab_size,
                                            l_max=DESK.l_max, seed=8))
    current = stream.domains[0].train
    # the same rows with every answer moved onto the [cls] token
    memory = [dataclasses.replace(s, answer_start=0, answer_end=0) for s in current]
    models = [BackboneModel(DESK, ad.seeded_rng(9)) for _ in range(2)]
    opts = [ad.Adam(m.flat, lr=3e-3) for m in models]
    acted = [[], []]

    def hook(i):
        def project():
            g = models[i].flat.grad.copy()
            agem_project_grad(models[i], memory)
            acted[i].append(not np.array_equal(g, models[i].flat.grad))
        return project

    for _ in range(3):
        got = opts[0].update(span_loss(models[0], current), hook(0))
        want = reference_update(opts[1], span_loss(models[1], current), hook(1))
        assert got == want
        assert_same_adam(opts[0], opts[1])
    assert acted[0] == acted[1] and any(acted[0])


@pytest.mark.parametrize("update, loss", [
    (adv.discriminator_step, lambda d, mem, cur: -adv._core_loss(d, mem, cur)),
    (adv._probe_step, adv._bce)], ids=["discriminator_step", "probe_step"])
def test_discriminator_updates_equal_the_written_out_sequence(update, loss):
    """Three updates of the discriminator: the returned loss (L_D for the
    game's step, the plain BCE for the probe's), the parameters and both
    moments equal the oracle's bit for bit."""
    rng = ad.seeded_rng(10)
    mem, cur = rng.normal(size=(8, DESK.hidden)) + 0.5, rng.normal(size=(6, DESK.hidden))
    discs = [adv.Discriminator(DESK.hidden, ad.seeded_rng(11)) for _ in range(2)]
    opts = [ad.Adam(d.flat, lr=1e-2) for d in discs]
    for _ in range(3):
        got = update(discs[0], opts[0], mem, cur)
        want = reference_update(opts[1], loss(discs[1], Tensor(mem), Tensor(cur)))
        assert got == want
        assert_same_adam(opts[0], opts[1])
    assert not np.array_equal(discs[0].flat.data, adv.Discriminator(
        DESK.hidden, ad.seeded_rng(11)).flat.data)


def test_agem_hook_equals_the_concatenate_project_split_path():
    """On a conflicting pair of gradients, the projection written into the
    flat gradient equals the old path: concatenate the per-tensor gradients,
    project, split and reshape."""
    stream = generate_cdaq_stream(GenConfig(setting="cdaq", n_domains=1, train_size=8,
                                            test_size=1, vocab_size=100, l_max=32, seed=4,
                                            passage_len=(10, 18)))
    model = BackboneModel(ModelConfig(vocab_size=100, hidden=16, n_layers=1, n_heads=2,
                                      l_max=32), ad.seeded_rng(5))
    current = stream.domains[0].train[:6]
    # the same rows with every answer moved onto the [cls] token
    memory = [dataclasses.replace(s, answer_start=0, answer_end=0) for s in current]
    params = list(model.params.values())

    def grads(samples):
        model.zero_grad()
        ad.backward(span_loss(model, samples))
        return [p.grad.copy() for p in params]

    g_cur, g_mem = grads(current), grads(memory)
    g, g_ref = (np.concatenate([x.reshape(-1) for x in gs]) for gs in (g_cur, g_mem))
    assert g @ g_ref < 0.0  # they conflict, so the projection acts
    parts = np.split(agem_project(g, g_ref), np.cumsum([x.size for x in g_cur]))
    want = [part.reshape(x.shape) for x, part in zip(g_cur, parts)]

    model.zero_grad()
    ad.backward(span_loss(model, current))
    agem_project_grad(model, memory)
    for i, (p, w) in enumerate(zip(params, want)):
        np.testing.assert_array_equal(p.grad, w, err_msg=str(i))
    assert not np.array_equal(model.flat.grad, g)


def test_flat_leaves_are_views_in_order():
    vec = np.arange(11.0)
    flat, (a, b, c) = ad.flat_leaves(vec, [(2, 3), (4,), (1, 1)])
    assert flat.data is vec and flat.requires_grad
    np.testing.assert_array_equal(a.data, [[0, 1, 2], [3, 4, 5]])
    np.testing.assert_array_equal(c.data, [[10]])
    for leaf in (a, b, c):
        assert leaf.requires_grad and leaf.data.base is vec
        assert np.shares_memory(leaf.grad, flat.grad)
    ad.backward(ad.tsum(ad.square(b)) + ad.tsum(a))
    np.testing.assert_array_equal(flat.grad, [1] * 6 + [12, 14, 16, 18, 0])
    frozen, leaves = ad.flat_leaves(vec.copy(), [(11,)], requires_grad=False)
    assert frozen.grad is None and leaves[0].grad is None and not leaves[0].requires_grad


def test_checkpoint_body_is_the_flat_vector(tmp_path):
    model = BackboneModel(DESK, ad.seeded_rng(2))
    model.save(tmp_path / "m.ckpt")
    raw = (tmp_path / "m.ckpt").read_bytes()
    assert raw.endswith(model.flat.data.astype("<f8").tobytes())
    loaded = BackboneModel.load(tmp_path / "m.ckpt")
    np.testing.assert_array_equal(loaded.flat.data, model.flat.data)
    assert loaded.flat.data.flags.writeable and loaded.flat.requires_grad
    assert all(p.data.base is loaded.flat.data for p in loaded.params.values())


def test_no_copy_shares_the_live_vector(tmp_path, monkeypatch):
    """The KL teacher, forward_chunks' untracked copy, a loaded checkpoint,
    upper's fresh draw and the game's frozen discriminator share no memory
    with their live model's vectors, and an update of the live models leaves
    each of them byte-identical. The encoder's backward through the game's
    copy leaves the live discriminator's gradient zero and its parameters
    as they were."""
    stream = generate_cdaq_stream(GenConfig(setting="cdaq", n_domains=2, train_size=8,
                                            test_size=4, vocab_size=100, l_max=32, seed=6,
                                            passage_len=(10, 18)))
    engine = ContinualEngine(stream, ContinualConfig(method="upper", hidden=16, n_layers=1,
                                                     epochs=1, batch_size=8))
    student = BackboneModel(engine.model_cfg, ad.seeded_rng(7))

    drawn = []

    class Drawn(BackboneModel):
        def __init__(self, *args):
            super().__init__(*args)
            drawn.append(self)

    monkeypatch.setattr(eng, "BackboneModel", Drawn)
    monkeypatch.setattr(ContinualEngine, "_fit", lambda *a, **k: None)
    engine.upper_bound_step(student, 2)
    (fresh,) = drawn
    np.testing.assert_array_equal(student.flat.data, fresh.flat.data)

    copies = []
    for cls in (BackboneModel, adv.Discriminator):
        monkeypatch.setattr(cls, "copy", lambda self: copies.append(ad.FlatModel.copy(self))
                            or copies[-1])
    teacher = distill.snapshot_teacher(student)
    train = stream.domains[0].train
    next(student.forward_chunks([s.input_ids for s in train]))
    assert copies[0] is teacher and len(copies) == 2
    student.save(tmp_path / "s.ckpt")
    loaded = BackboneModel.load(tmp_path / "s.ckpt")
    disc = adv.Discriminator(engine.model_cfg.hidden, ad.seeded_rng(8))
    h, _, _, _ = student.forward_batch([s.input_ids for s in train])
    l_t = eng.adversarial_term(disc, h, 4)
    assert len(copies) == 3 and isinstance(copies[2], adv.Discriminator)

    others = {"teacher": (teacher, student), "chunk_copy": (copies[1], student),
              "loaded": (loaded, student), "upper_draw": (fresh, student),
              "game_disc": (copies[2], disc)}
    before = {k: m.flat.data.copy() for k, (m, _) in others.items()}
    for name, (other, owner) in others.items():
        live = [owner.flat.data, owner.flat.grad]
        mine = [other.flat.data, other.flat.grad] + [p.data for p in other.params.values()]
        assert not any(np.shares_memory(a, b) for a in mine if a is not None for b in live), \
            name

    pooled = h.data[:, 0]
    adv.discriminator_step(disc, ad.Adam(disc.flat, lr=1e-2), pooled[4:], pooled[:4])
    assert not np.array_equal(disc.flat.data, before["game_disc"])
    stepped = disc.flat.data.copy()
    disc.zero_grad()
    ad.backward(l_t)
    assert student.flat.grad.any() and not disc.flat.grad.any()
    assert disc.flat.data.tobytes() == stepped.tobytes()

    ad.Adam(student.flat, lr=1e-2).update(span_loss(student, train))
    assert not np.array_equal(student.flat.data, before["loaded"])
    for name, (other, _) in others.items():
        assert other.flat.data.tobytes() == before[name].tobytes(), name
        for p in other.params.values():
            assert p.data.base is other.flat.data, name


def test_gradcheck_param_swap_restores_the_view():
    model = gradcheck._tiny_model()
    samples, _ = gradcheck._ragged_samples(ad.seeded_rng(3), model, [4, 2])
    view = model.params["blk0.wq"]
    err = gradcheck._param_check(model, "blk0.wq", lambda: span_loss(model, samples))
    assert err < gradcheck.TOLERANCE
    assert model.params["blk0.wq"] is view and np.shares_memory(view.data, model.flat.data)


def per_parameter_ewc_penalty(model, states, lam):
    """EWC's penalty as one term per parameter tensor and Fisher state, as it
    ran before it read the flat vector: the oracle of eng.ewc_penalty."""
    total = Tensor(0.0)
    shapes = [p.data.shape for p in model.params.values()]
    for st in states:
        for p, f, a in zip(model.params.values(), ad.views(st.fisher, shapes),
                           ad.views(st.anchor, shapes)):
            total = total + ad.tsum(Tensor(f) * ad.square(p - Tensor(a)))
    return total * (lam / 2.0)


def _fisher_states(model, n, rng):
    size = model.flat.data.size
    return [eng.FisherState(fisher=np.abs(rng.normal(size=size)),
                            anchor=model.flat.data + rng.normal(scale=0.1, size=size))
            for _ in range(n)]


@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_flat_ewc_penalty_equals_the_per_parameter_terms(n_states):
    """On the desk model, the flat penalty's gradient equals the per-parameter
    oracle's bit for bit, and its value agrees to 1e-12 relative."""
    model = BackboneModel(DESK, ad.seeded_rng(12))
    states = _fisher_states(model, n_states, ad.seeded_rng(13))
    got = []
    for penalty in (eng.ewc_penalty, per_parameter_ewc_penalty):
        model.zero_grad()
        loss = penalty(model, states, eng.EWC_LAMBDA)
        ad.backward(loss)
        got.append((loss.item(), model.flat.grad.copy()))
    (value, grad), (want_value, want_grad) = got
    assert grad.any() and grad.tobytes() == want_grad.tobytes()
    assert value == pytest.approx(want_value, rel=1e-12)


def _tape_nodes(monkeypatch, fn):
    """The number of tape nodes fn() records."""
    nodes = []
    make = ad._make

    def counting_make(*args):
        out = make(*args)
        if out._backward is not None:
            nodes.append(out._op)
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    fn()
    monkeypatch.setattr(ad, "_make", make)
    return len(nodes)


def test_ewc_batch_records_five_penalty_nodes_per_fisher_state(monkeypatch):
    """An ewc batch with two Fisher states records its span loss, 5 nodes per
    state (sub, square, mul, tsum and the add into the total), the penalty's
    scaling and the sum of the two terms; 38 terms a state recorded 190."""
    stream = generate_cdaq_stream(GenConfig(setting="cdaq", n_domains=3, train_size=16,
                                            test_size=1, vocab_size=DESK.vocab_size,
                                            l_max=DESK.l_max, seed=14))
    engine = ContinualEngine(stream, ContinualConfig(method="ewc"))
    model = BackboneModel(engine.model_cfg, ad.seeded_rng(15))
    engine.fisher_states = _fisher_states(model, 2, ad.seeded_rng(16))
    fits = []
    monkeypatch.setattr(ContinualEngine, "_fit", lambda self, *a, **k: fits.append(k))
    engine.ewc_step(model, 3)
    (fit,) = fits
    batch = stream.domains[2].train
    assert len(batch) == engine.cfg.batch_size
    span = _tape_nodes(monkeypatch, lambda: span_loss(model, batch))
    whole = _tape_nodes(monkeypatch, lambda: fit["loss_fn"](batch))
    assert span == 40 and whole - span == 5 * 2 + 2


# Penalties of the flat one's value whose gradient is wrong
WRONG_GRADIENTS = {
    # the flat vector read as a constant: a zero gradient
    "detached": lambda model, states, lam: eng.ewc_penalty(
        SimpleNamespace(flat=Tensor(model.flat.data)), states, lam),
    # plus a term of value 0 and gradient 1
    "plus_one": lambda model, states, lam: eng.ewc_penalty(model, states, lam)
    + ad.tsum(model.flat) - ad.tsum(Tensor(model.flat.data)),
}


@pytest.mark.parametrize("wrong", list(WRONG_GRADIENTS))
def test_gradcheck_ewc_check_fails_on_a_wrong_gradient(monkeypatch, wrong):
    """The check perturbs the vector the penalty reads, so it passes the
    penalty and fails a wrong gradient; perturbing a named parameter, which
    the flat penalty does not read, once read 0 and passed."""
    err = gradcheck.check_ewc_penalty()
    assert 0.0 < err < gradcheck.TOLERANCE
    monkeypatch.setattr(gradcheck, "ewc_penalty", WRONG_GRADIENTS[wrong])
    assert gradcheck.check_ewc_penalty() > 0.1
