import inspect
import math
import tracemalloc

import numpy as np
import pytest

from contspan import autodiff as ad
from contspan.autodiff import Tensor
from contspan.backbone import NEG_INF


def test_matmul_identity():
    a = np.arange(8.0).reshape(2, 4)
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("a_shape, b_shape", [(3, (3, 2)), (3, 3), ((), (3, 2)),
                                              ((2, 3), ())])
def test_matmul_rejects_1d_left_and_0d_operands(a_shape, b_shape):
    with pytest.raises(ValueError, match="matmul requires"):
        ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5, abs=1e-15)


def test_softmax_rows_sum_to_one():
    rng = ad.seeded_rng(0)
    x = Tensor(rng.normal(size=(7, 9)) * 10)
    sums = ad.softmax(x).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_log_softmax_exponentiates_to_softmax():
    rng = ad.seeded_rng(1)
    x = Tensor(rng.normal(size=(4, 6)))
    np.testing.assert_allclose(np.exp(ad.log_softmax(x).data),
                               ad.softmax(x).data, atol=1e-9)


def test_backward_square_sum():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_constant_root_leaves_zero_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    root = Tensor(5.0)
    ad.backward(root)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_backward_from_a_requires_grad_leaf_root():
    x = Tensor(3.0, requires_grad=True)
    ad.backward(x)
    assert x.grad == 1.0


def test_backward_sums_both_uses_of_an_operand_fed_twice():
    """y feeds one mul twice: its gradient is the sum of both uses, and the
    constant c, a mul operand, gets none."""
    x = Tensor([1.5, -2.0], requires_grad=True)
    c = Tensor([3.0, 0.5])
    y = x * c
    ad.backward(ad.tsum(y * y))
    np.testing.assert_array_equal(x.grad, (y.data + y.data) * c.data)
    assert c.grad is None


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x + x)


def test_backward_cross_entropy_matches_finite_differences():
    rng = ad.seeded_rng(2)
    z = Tensor(rng.normal(size=5))
    target = 2

    def f(t):
        return -ad.index(ad.log_softmax(t), target)

    assert ad.finite_difference_check(f, z, eps=1e-5) < 1e-4


def test_backward_idempotent_after_reset():
    rng = ad.seeded_rng(3)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def run():
        x.zero_grad()
        ad.backward(ad.tsum(ad.square(ad.matmul(x, x))))
        return x.grad.copy()

    g1, g2 = run(), run()
    np.testing.assert_array_equal(g1, g2)


def test_finite_difference_on_linear_function_is_exact():
    rng = ad.seeded_rng(4)
    x = Tensor(rng.normal(size=6))
    assert ad.finite_difference_check(ad.tsum, x) < 1e-10


def test_gelu_and_layernorm_gradients():
    rng = ad.seeded_rng(5)
    x = Tensor(rng.normal(size=(2, 5)))
    g = Tensor(np.ones(5), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)

    def f(t):
        return ad.tsum(ad.gelu(ad.layer_norm(t, g, b)))

    assert ad.finite_difference_check(f, x) < 1e-4


def test_embedding_forward_and_backward():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ad.embedding(table, np.array([[1, 1], [3, 0]]))
    np.testing.assert_array_equal(out.data[0, 0], [3, 4, 5])
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(table.grad[1], [2, 2, 2])
    with pytest.raises(ValueError, match="id out of range"):
        ad.embedding(table, np.array([4]))


def test_embedding_backward_adds_in_index_order():
    """Repeated ids over a wide range of magnitudes, so the order of the
    additions shows in the bits: the gradient equals np.add.at's."""
    rng = ad.seeded_rng(11)
    table = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    ids = rng.integers(0, 3, size=(4, 50))
    g = rng.normal(size=(4, 50, 5)) * 10.0 ** rng.integers(-8, 8, size=(4, 50, 1))
    ad.backward(ad.tsum(ad.embedding(table, ids) * Tensor(g)))
    expected = np.zeros((7, 5))
    np.add.at(expected, ids.reshape(-1), g.reshape(-1, 5))
    np.testing.assert_array_equal(table.grad, expected)


def test_batched_matmul_gradient():
    rng = ad.seeded_rng(6)
    a = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 5)))

    def f(t):
        return ad.tsum(ad.square(ad.matmul(t, w)))

    assert ad.finite_difference_check(f, a) < 1e-4

    def fw(t):
        return ad.tsum(ad.square(ad.matmul(a, t)))

    assert ad.finite_difference_check(fw, w) < 1e-4


def test_seeded_rng_determinism_and_divergence():
    a = ad.seeded_rng(0).random(100)
    b = ad.seeded_rng(0).random(100)
    c = ad.seeded_rng(1).random(100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_rng_uniform_mean():
    draws = ad.seeded_rng(0).random(10 ** 6)
    assert abs(draws.mean() - 0.5) < 0.01


def test_adam_converges_on_quadratic():
    x = Tensor([5.0, -3.0], requires_grad=True)
    opt = ad.Adam([x], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        ad.backward(ad.tsum(ad.square(x)))
        opt.step()
    assert np.abs(x.data).max() < 1e-3


def _lean_inputs():
    """(x, axes) pairs: 2-d and (B, l, h) inputs, the third with
    NEG_INF-masked positions, and a (B, nh, l, dh) view of a (B, l, nh, dh)
    array, as q, k and v arrive. x's gradient is drawn C-ordered and then
    transposed by axes, so the last one is a non-contiguous view too."""
    rng = ad.seeded_rng(6)
    x3 = rng.normal(size=(3, 5, 8)) * 3.0
    masked = x3.copy()
    masked[1, :, 2:] += NEG_INF
    masked[2, 1] = NEG_INF
    heads = (0, 2, 1, 3)
    return [(rng.normal(size=(7, 9)) * 4.0, (0, 1)), (x3, (0, 1, 2)), (masked, (0, 1, 2)),
            ((rng.normal(size=(2, 6, 3, 5)) * 3.0).transpose(heads), heads)]


@pytest.mark.parametrize("i", range(4))
def test_lean_forwards_equal_plain_expressions(i):
    """gelu, softmax and layer_norm compute in place; their forwards keep the
    bytes of the plain expressions written out here."""
    x, _ = _lean_inputs()[i]
    c = math.sqrt(2.0 / math.pi)
    inner = c * (x + 0.044715 * x * x * x)
    np.testing.assert_array_equal(ad.gelu(Tensor(x)).data, 0.5 * x * (1.0 + np.tanh(inner)))

    e = np.exp(x - x.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(ad.softmax(Tensor(x)).data, e / e.sum(axis=-1, keepdims=True))

    rng = ad.seeded_rng(7)
    gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    np.testing.assert_array_equal(ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data,
                                  (x - mu) * inv * gain + bias)


@pytest.mark.parametrize("i", range(4))
def test_lean_backwards_equal_plain_expressions(i):
    """gelu, softmax and layer_norm backward, layer_norm's forward statistics
    and Adam compute in place; they keep the bytes of the plain expressions
    written out here."""
    x, axes = _lean_inputs()[i]
    rng = ad.seeded_rng(8)
    g = rng.normal(size=np.transpose(x, axes).shape).transpose(axes)

    def grads(out):
        return [gin for _, gin in out._backward(g)]

    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    d_inner = c * (1.0 + 3 * 0.044715 * x * x)
    [dx] = grads(ad.gelu(Tensor(x, requires_grad=True)))
    np.testing.assert_array_equal(
        dx, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner))

    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    [dx] = grads(ad.softmax(Tensor(x, requires_grad=True)))
    np.testing.assert_array_equal(dx, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    out = ad.layer_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
                        Tensor(bias, requires_grad=True))
    stats = {k: p.default for k, p in inspect.signature(out._backward).parameters.items()}
    np.testing.assert_array_equal(stats["_inv"], inv)
    np.testing.assert_array_equal(stats["_xhat"], xhat)
    dx, dgain, dbias = grads(out)
    gx = g * gain
    np.testing.assert_array_equal(
        dx, inv * (gx - gx.mean(axis=-1, keepdims=True)
                   - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
    red = tuple(range(x.ndim - 1))
    np.testing.assert_array_equal(dgain, (g * xhat).sum(axis=red))
    np.testing.assert_array_equal(dbias, g.sum(axis=red))

    start = rng.normal(size=x.shape)
    p = Tensor(start.copy(), requires_grad=True)
    opt = ad.Adam([p], lr=1e-2)
    data, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for step, grad in enumerate((x, g, x - g), start=1):
        p.grad = grad
        opt.step()
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        mhat = m / (1.0 - 0.9 ** step)
        vhat = v / (1.0 - 0.999 ** step)
        data -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_array_equal(p.data, data)


@pytest.mark.parametrize("i", range(4))
def test_lean_ops_equal_plain_expressions_across_block_boundaries(i, monkeypatch):
    """With 7-element blocks, gelu's blocks split rows and leave a ragged
    tail; the bytes stay those of the plain expressions."""
    monkeypatch.setattr(ad, "BLOCK", 7)
    test_lean_forwards_equal_plain_expressions(i)
    test_lean_backwards_equal_plain_expressions(i)


def test_attention_equals_the_node_chain():
    """attention on NEG_INF-masked ragged rows, one sequence empty, gives the
    values of the chain of reshape, transpose, matmul and softmax(scores *
    scale + bias) nodes it replaced, and the same gradients bit for bit, down
    through the padded linear layers that make q, k and v, whose bias
    gradients sum over the strides the gradients arrive with."""
    rng = ad.seeded_rng(12)
    B, l, h, nh = 3, 6, 64, 2  # the desk model's width; its scale is no power of two
    dh = h // nh
    valid = np.arange(l) < np.array([6, 2, 0])[:, None]
    bias = NEG_INF * (1.0 - valid)[:, None, None, :]
    params = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in [(int(valid.sum()), h)] + [(h, h), (h,)] * 3]
    weights = rng.normal(size=(B, l, h)) * valid[..., None]

    def heads(t):
        return ad.transpose(ad.reshape(t, (B, l, nh, dh)), (0, 2, 1, 3))

    def chain(q, k, v):
        scores = ad.matmul(heads(q), ad.transpose(heads(k), (0, 1, 3, 2)))
        probs = ad.softmax(ad.add(ad.mul(scores, Tensor(1.0 / math.sqrt(dh))), Tensor(bias)))
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, heads(v)), (0, 2, 1, 3)), (B, l, h))
        return ad.tsum(ctx * Tensor(weights)), ctx.data[valid]

    def node(q, k, v):
        ctx = ad.attention(q, k, v, nh, bias, valid)
        return ad.tsum(ctx * Tensor(weights[valid])), ctx.data

    runs = []
    for attend in (chain, node):
        for p in params:
            p.zero_grad()
        x, *wb = params
        loss, out = attend(*(ad.linear(x, wb[i], wb[i + 1], valid, padded=True)
                             for i in (0, 2, 4)))
        ad.backward(loss)
        runs.append((out, [p.grad.copy() for p in params]))
    (ref, ref_grads), (out, grads) = runs
    np.testing.assert_array_equal(out, ref)
    assert np.all(np.isfinite(out))
    for i, (g, want) in enumerate(zip(grads, ref_grads)):
        np.testing.assert_array_equal(g, want, err_msg=str(i))
    assert all(np.any(g != 0.0) for g in grads)


@pytest.mark.parametrize("name", "qkv")
def test_attention_gradients_match_finite_differences(name):
    """attention's q, k and v gradients on a ragged batch, zeros at padding
    as linear(..., padded=True) leaves them, against central differences."""
    valid = _ragged_valid()
    rng = ad.seeded_rng(14)
    bias = NEG_INF * (1.0 - valid)[:, None, None, :]
    args = {nm: Tensor(rng.normal(size=(3, 5, 4)) * valid[..., None]) for nm in "qkv"}
    weights = Tensor(rng.normal(size=(int(valid.sum()), 4)))

    def f(t):
        q, k, v = {**args, name: t}.values()
        return ad.tsum(ad.square(ad.attention(q, k, v, 2, bias, valid)) * weights)

    assert ad.finite_difference_check(f, args[name]) < 1e-6


def test_forward_only_gelu_allocates_one_output_and_block_scratch():
    """An untracked gelu over several blocks allocates its output and
    O(BLOCK) scratch; a tracked one keeps the full-size tanh for backward."""
    x = ad.seeded_rng(13).normal(size=(5 * ad.BLOCK + 3,))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.gelu(Tensor(x))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + 2 * 8 * ad.BLOCK, (peak, out.data.nbytes)
    assert out._backward is None

    tracked = ad.gelu(Tensor(x, requires_grad=True))
    t = inspect.signature(tracked._backward).parameters["_t"].default
    assert t.size == x.size


def _ragged_valid():
    """A (3, 5) prefix mask: rows of 5, 2 and 1 valid tokens."""
    return np.arange(5) < np.array([5, 2, 1])[:, None]


def test_unpack_moves_rows_and_gradients():
    valid = _ragged_valid()
    rng = ad.seeded_rng(9)
    rows = rng.normal(size=(int(valid.sum()), 4))
    back = ad.unpack(Tensor(rows), valid).data
    np.testing.assert_array_equal(back[valid], rows)
    np.testing.assert_array_equal(back[~valid], 0.0)

    wf = rng.normal(size=(3, 5, 4))

    def f(t):
        return ad.tsum(ad.square(ad.unpack(t, valid)) * Tensor(wf))

    assert ad.finite_difference_check(f, Tensor(rows)) < 1e-6


@pytest.mark.parametrize("padded", [False, True])
def test_linear_gradients_on_packed_rows(padded):
    valid = _ragged_valid()
    rng = ad.seeded_rng(10)
    n_valid = int(valid.sum())
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((n_valid, 4), (4, 3), (3,)))
    out = ad.linear(x, w, b, valid, padded)
    ref = x.data @ w.data + b.data
    if padded:
        np.testing.assert_array_equal(out.data[valid], ref)
        np.testing.assert_array_equal(out.data[~valid], 0.0)
    else:
        np.testing.assert_array_equal(out.data, ref)
    weights = Tensor(rng.normal(size=out.data.shape))
    args = {"x": x, "w": w, "b": b}
    for name in args:
        def f(t, name=name):
            return ad.tsum(ad.square(ad.linear(**{**args, name: t}, valid=valid,
                                               padded=padded)) * weights)
        assert ad.finite_difference_check(f, args[name]) < 1e-6, name
