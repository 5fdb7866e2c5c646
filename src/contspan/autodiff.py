"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every primitive records a backward closure on
the output tensor, and ``backward()`` walks the recorded graph in reverse
topological order. Constants stay off the tape: a tensor is tracked if it
requires a gradient or was computed from a tracked tensor; a primitive
records a node only if an input is tracked, the node keeps only its tracked
inputs, and its backward yields a gradient for exactly those. The walk
consumes the graph: as it passes a node it drops the node's closure and
inputs, so each activation is freed once the walk has passed its consumers,
and a second ``backward()`` through the same graph raises. Everything is
backed by numpy arrays; no other state.
"""

from __future__ import annotations

import math
from copy import copy as shallow_copy
from typing import Callable, Sequence

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
BLOCK = 1 << 15  # float64 elements per slice of gelu's and Adam's in-place chains (256 KiB)
LN_EPS = 1e-5  # layer_norm's variance floor
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor
NEG_INF = -1e9  # additive mask value; finite so tensors stay NaN/Inf-free


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked for gradients.

    A ``requires_grad`` tensor holds a ``grad`` array from construction on,
    zeros until ``backward()`` accumulates into it; others hold None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_inputs", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._inputs: tuple[Tensor, ...] = ()
        self._op = "leaf"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # operator sugar, all routed through module-level primitives
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*inputs: Tensor) -> bool:
    return any(t.requires_grad or t._backward is not None for t in inputs)


def _consumed(g):
    """The backward of a node that an earlier backward() walked through."""
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "consumed; run the forward pass again")


def _make(data: np.ndarray, op: str, inputs: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(data)
    if backward is not None and _tracked(*inputs):
        out._backward = backward
        out._inputs = tuple(t for t in inputs if _tracked(t))
        out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g, _a=a, _b=b):
        if _tracked(_a):
            yield _a, _unbroadcast(g, _a.data.shape)
        if _tracked(_b):
            yield _b, _unbroadcast(g, _b.data.shape)

    return _make(data, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bw(g, _a=a, _b=b):
        if _tracked(_a):
            yield _a, _unbroadcast(g, _a.data.shape)
        if _tracked(_b):
            yield _b, _unbroadcast(-g, _b.data.shape)

    return _make(data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g, _a=a, _b=b):
        if _tracked(_a):
            yield _a, _unbroadcast(g * _b.data, _a.data.shape)
        if _tracked(_b):
            yield _b, _unbroadcast(g * _a.data, _b.data.shape)

    return _make(data, "mul", (a, b), bw)


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def bw(g, _a=a):
        yield _a, 2.0 * g * _a.data

    return _make(data, "square", (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dims broadcast as in ``np.matmul``. The left
    operand is at least 2-d, the right at least 1-d."""
    if a.data.ndim < 2 or b.data.ndim == 0:
        raise ValueError(f"matmul requires a left operand of at least 2-d and a right "
                         f"of at least 1-d, got shapes {a.data.shape} and {b.data.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}") from e

    def bw(g, _a=a, _b=b):
        ad, bd = _a.data, _b.data
        vec = bd.ndim == 1
        if _tracked(_a):
            ga = g[..., None] * bd if vec else g @ np.swapaxes(bd, -1, -2)
            yield _a, _unbroadcast(ga, ad.shape)
        if _tracked(_b):
            at = np.swapaxes(ad, -1, -2)
            gb = (at @ g[..., None])[..., 0] if vec else at @ g
            yield _b, _unbroadcast(gb, bd.shape)

    return _make(data, "matmul", (a, b), bw)


def _scatter(rows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Packed rows scattered to valid.shape + rows.shape[1:], zeros elsewhere."""
    out = np.zeros(valid.shape + rows.shape[1:])
    out[valid] = rows
    return out


def unpack(a: Tensor, valid: np.ndarray) -> Tensor:
    """Packed (n_valid, h) rows, those of the (B, l) boolean mask valid in
    row-major order, scattered to (B, l, h), zeros at padding."""
    data = _scatter(a.data, valid)

    def bw(g, _a=a, _valid=valid):
        yield _a, g[_valid]

    return _make(data, "unpack", (a,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor, valid: np.ndarray,
           padded: bool = False) -> Tensor:
    """x @ w + b on the packed (n_valid, k) rows of the (B, l) boolean prefix
    mask valid (see unpack); padded=True returns the (B, l, n) scatter, with
    zeros at padding.

    The output and the backward give the padded (B, l, k) @ (k, n) + (n,)
    product's values and gradients bit for bit when l >= 2, which assembled
    inputs ([cls] q [sep] p [sep], at least 5 tokens) always meet. With l = 1
    the padded product multiplies one row per sequence, which BLAS computes
    with another kernel, so a batch of two or more 1-token rows can differ in
    the last bits. The weight and bias gradients sum in its order,
    leaving out the padded terms, which are exact zeros: the weight gradient
    as one GEMM per sequence, added up in sequence order; the bias gradient
    over the sequences, then over the positions, reduced from the padded
    output gradient as numpy lays it out (for q, k and v the gradient
    arrives through transposes, and a transposed view sums its positions
    pairwise). The input gradient is the padded product's own GEMM: BLAS may
    choose its kernel, and so its rounding, by the row count (OpenBLAS does
    on AVX-512 hosts for small products), so the rows stay l per sequence."""
    data = x.data @ w.data
    data += b.data
    if padded:
        data = _scatter(data, valid)

    def bw(g, _x=x, _w=w, _b=b, _valid=valid, _padded=padded):
        rows, gp = (g[_valid], g) if _padded else (g, _scatter(g, _valid))
        if _tracked(_x):
            yield _x, (gp @ _w.data.T)[_valid]
        if _tracked(_w):
            ends = np.cumsum(_valid.sum(axis=1))
            gw = _x.data[:ends[0]].T @ rows[:ends[0]]
            for o, e in zip(ends[:-1], ends[1:]):
                gw += _x.data[o:e].T @ rows[o:e]
            yield _w, gw
        if _tracked(_b):
            yield _b, _unbroadcast(gp, _b.data.shape)

    return _make(data, "linear", (x, w, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g, _a=a):
        yield _a, g.reshape(_a.data.shape)

    return _make(data, "reshape", (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bw(g, _a=a, _inv=tuple(inv)):
        yield _a, np.transpose(g, _inv)

    return _make(data, "transpose", (a,), bw)


def index(a: Tensor, idx) -> Tensor:
    data = a.data[idx]

    def bw(g, _a=a, _idx=idx):
        full = np.zeros_like(_a.data)
        np.add.at(full, _idx, g)
        yield _a, full

    return _make(data, "index", (a,), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: output shape ids.shape + (h,)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(f"embedding: id out of range for table with "
                         f"{table.data.shape[0]} rows")
    data = table.data[ids]

    def bw(g, _t=table, _ids=ids):
        # bincount adds each cell's terms in index order, as np.add.at does
        h = _t.data.shape[1]
        cells = (_ids.reshape(-1, 1) * h + np.arange(h)).reshape(-1)
        yield _t, np.bincount(cells, weights=g.reshape(-1),
                              minlength=_t.data.size).reshape(_t.data.shape)

    return _make(data, "embedding", (table,), bw)


def gelu(a: Tensor) -> Tensor:
    """Smooth gated activation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Forward and backward run their in-place chains over contiguous slices of
    BLOCK elements, so the temporaries stay in cache. Only the output, and
    for a tracked input the tanh that backward reads, are full-size; a
    forward-only pass keeps the tanh in one block of scratch.
    """
    # In place, in the order of the formula (x**3 via np.power is slow);
    # only commutative operands swap, so the bytes match the plain expression.
    x = a.data.ravel()
    out = np.empty_like(x)
    t = np.empty_like(x) if _tracked(a) else None
    s = np.empty(min(BLOCK, x.size))
    for lo in range(0, x.size, BLOCK):
        xb = x[lo:lo + BLOCK]
        sb = s[:xb.size]
        tb = sb if t is None else t[lo:lo + BLOCK]
        np.multiply(xb, 0.044715, out=tb)
        tb *= xb
        tb *= xb
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        ob = out[lo:lo + BLOCK]
        np.multiply(xb, 0.5, out=ob)
        np.add(tb, 1.0, out=sb)
        ob *= sb

    def bw(g, _a=a, _t=t):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t*t) * c*(1 + 3*0.044715*x*x)), in
        # place, block by block, with the forward's rule: same operations,
        # same order
        x, g = _a.data.ravel(), g.ravel()
        gx = np.empty_like(x)
        d, f = np.empty(min(BLOCK, x.size)), np.empty(min(BLOCK, x.size))
        for lo in range(0, x.size, BLOCK):
            xb, tb = x[lo:lo + BLOCK], _t[lo:lo + BLOCK]
            db, fb, sb = d[:xb.size], f[:xb.size], gx[lo:lo + BLOCK]
            np.multiply(xb, 3 * 0.044715, out=db)
            db *= xb
            db += 1.0
            db *= _GELU_C
            np.multiply(tb, tb, out=sb)
            np.subtract(1.0, sb, out=sb)
            np.multiply(xb, 0.5, out=fb)
            fb *= sb
            fb *= db
            np.add(tb, 1.0, out=sb)
            sb *= 0.5
            sb += fb
            sb *= g[lo:lo + BLOCK]
        yield _a, gx.reshape(_a.data.shape)

    return _make(out.reshape(a.data.shape), "gelu", (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g, _a=a, _y=data):
        yield _a, g * _y * (1.0 - _y)

    return _make(data, "sigmoid", (a,), bw)


def log(a: Tensor, floor: float) -> Tensor:
    """Natural log of the argument clamped from below at floor; where the
    clamp is active the gradient is zero."""
    x = np.maximum(a.data, floor)
    data = np.log(x)

    def bw(g, _a=a, _x=x, _floor=floor):
        yield _a, np.where(_a.data >= _floor, g / _x, 0.0)

    return _make(data, "log", (a,), bw)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bw(g, _a=a, _y=data):
        yield _a, g * _y

    return _make(data, "exp", (a,), bw)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of z, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y * (g - sum(g * y)), the gradient through softmax output y, as one new array."""
    gy = g * y
    np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
    gy *= y
    return gy


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    data = _softmax(a.data.copy(order="K"))

    def bw(g, _a=a, _y=data):
        yield _a, _softmax_grad(g, _y)

    return _make(data, "softmax", (a,), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, valid: np.ndarray) -> Tensor:
    """softmax(q k^T / sqrt(dh) + bias) v over n_heads heads of padded (B, l, h)
    q, k and v, as one node that keeps the probabilities; returns the packed
    (n_valid, h) rows of the (B, l) boolean mask valid; bias is NEG_INF at
    padded keys and -0.0 at valid ones. It runs the reshape, transpose, matmul
    and softmax chain's numpy operations in its order on its layouts, so values,
    gradients and the strides linear's bias gradient sums over match."""
    B, l, h = q.data.shape
    scale = 1.0 / math.sqrt(h // n_heads)

    def split(a):  # (B, l, h) -> a (B, n_heads, l, dh) view
        return np.transpose(a.reshape(B, l, n_heads, -1), (0, 2, 1, 3))

    def merge(a):  # (B, n_heads, l, dh) -> (B, l, h)
        return np.transpose(a, (0, 2, 1, 3)).reshape(B, l, h)

    y = split(q.data) @ np.transpose(split(k.data), (0, 1, 3, 2))
    y *= scale
    y += NEG_INF * (1.0 - valid)[:, None, None, :]
    data = merge(_softmax(y) @ split(v.data))[valid]

    def bw(g, _q=q, _k=k, _v=v, _y=y, _valid=valid):
        gc = split(_scatter(g, _valid))
        gs = _softmax_grad(gc @ np.swapaxes(split(_v.data), -1, -2), _y)
        gs *= scale
        if _tracked(_q):
            yield _q, merge(gs @ split(_k.data))
        if _tracked(_k):
            yield _k, merge(np.swapaxes(np.swapaxes(split(_q.data), -1, -2) @ gs, -1, -2))
        if _tracked(_v):
            yield _v, merge(np.swapaxes(_y, -1, -2) @ gc)

    return _make(data, "attention", (q, k, v), bw)


def log_softmax(a: Tensor) -> Tensor:
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    data = z - lse

    def bw(g, _a=a, _ls=data):
        sm = np.exp(_ls)
        yield _a, g - sm * g.sum(axis=-1, keepdims=True)

    return _make(data, "log_softmax", (a,), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    # The mean once, and the variance from the centred rows as np.var
    # computes it (add.reduce of the squares over n); then in place.
    x = a.data
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def bw(g, _a=a, _gain=gain, _bias=bias, _xhat=xhat, _inv=inv):
        # inv * (gx - mean(gx) - xhat * mean(gx * xhat)) with gx = g * gain,
        # in place
        if _tracked(_a):
            gx = g * _gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            p = gx * _xhat
            m2 = p.mean(axis=-1, keepdims=True)
            np.multiply(_xhat, m2, out=p)
            gx -= m1
            gx -= p
            gx *= _inv
            yield _a, gx
        red = tuple(range(g.ndim - 1))
        if _tracked(_gain):
            yield _gain, (g * _xhat).sum(axis=red)
        if _tracked(_bias):
            yield _bias, g.sum(axis=red)

    return _make(data, "layer_norm", (a, gain, bias), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bw(g, _a=a, _axis=axis):
        if _axis is None:
            yield _a, np.broadcast_to(g, _a.data.shape).copy()
        else:
            yield _a, np.broadcast_to(np.expand_dims(g, _axis), _a.data.shape).copy()

    return _make(data, "sum", (a,), bw)


def tmean(a: Tensor, axis=None) -> Tensor:
    data = a.data.mean(axis=axis)
    denom = a.data.size if axis is None else a.data.shape[axis]

    def bw(g, _a=a, _axis=axis, _d=denom):
        if _axis is None:
            yield _a, np.broadcast_to(g / _d, _a.data.shape).copy()
        else:
            yield _a, np.broadcast_to(np.expand_dims(g, _axis), _a.data.shape) / _d

    return _make(data, "mean", (a,), bw)


def squared_difference(a: Tensor, b: Tensor) -> Tensor:
    diff = a.data - b.data
    data = diff * diff

    def bw(g, _a=a, _b=b, _diff=diff):
        if _tracked(_a):
            yield _a, _unbroadcast(2.0 * g * _diff, _a.data.shape)
        if _tracked(_b):
            yield _b, _unbroadcast(-2.0 * g * _diff, _b.data.shape)

    return _make(data, "squared_difference", (a, b), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g, _ts=tuple(tensors), _off=offsets, _axis=axis):
        for i, t in enumerate(_ts):
            if _tracked(t):
                sl = [slice(None)] * g.ndim
                sl[_axis] = slice(_off[i], _off[i + 1])
                yield t, g[tuple(sl)]

    return _make(data, "concat", tuple(tensors), bw)


def take_along_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[b] = a[b, idx[b]] for a 2-d input; used for gold-index picks."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def bw(g, _a=a, _rows=rows, _idx=idx):
        full = np.zeros_like(_a.data)
        np.add.at(full, (_rows, _idx), g)
        yield _a, full

    return _make(data, "take_along_last", (a,), bw)


# ---------------------------------------------------------------------------
# backward pass

def backward(root: Tensor):
    """Populate ``grad`` on every reachable requires_grad leaf.

    ``root`` must be scalar. Grads accumulate in place (a leaf's grad may be
    a view into a flat gradient; see flat_leaves), so zero them first if a
    fresh pass is wanted. Nodes keep only their tracked inputs, so no
    constant enters the walk and every node it visits receives a gradient.

    The walk consumes the graph: each node it passes loses its closure and
    its inputs, so activations are freed as the walk goes, while every
    tensor keeps its data. A second call on the same root, or on any graph
    that shares a consumed node, raises RuntimeError before any gradient
    moves. A constant root has no graph, and leaves every grad at zero.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed(None)  # raises, before any gradient moves
        visited.add(id(node))
        stack.append((node, True))
        for inp in node._inputs:
            if id(inp) not in visited:
                stack.append((inp, False))

    # Once popped, a passed node lives on only if the caller holds it. Sums
    # stay out of place: add's backward hands one g to both operands.
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node))
        if node.requires_grad:
            node.grad += g
        if node._backward is None:
            continue
        for inp, gin in node._backward(g):
            key = id(inp)
            grads[key] = grads[key] + gin if key in grads else gin
        node._backward = _consumed
        node._inputs = ()


# ---------------------------------------------------------------------------
# numeric checking and rng

def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar function of ``x``. A NaN anywhere
    is reported as ``inf`` so callers treat it as a failure.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if not np.all(np.isfinite(out.data)):
        return float("inf")
    backward(out)
    analytic = probe.grad.copy().reshape(-1)

    flat = x.data.copy().reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = f(Tensor(bumped.reshape(x.data.shape))).item()
        bumped[i] = flat[i] - eps
        lo = f(Tensor(bumped.reshape(x.data.shape))).item()
        numeric[i] = (hi - lo) / (2.0 * eps)
    if not np.all(np.isfinite(numeric)):
        return float("inf")
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic PCG64 stream; extra ints derive independent substreams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# ---------------------------------------------------------------------------
# flat parameters and optimizer

def views(vec: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views into the 1-d vec, one per shape, in order."""
    parts = np.split(vec, np.cumsum([math.prod(s) for s in shapes])[:-1])
    return [part.reshape(s) for part, s in zip(parts, shapes)]


def flat_leaves(vec: np.ndarray, shapes, requires_grad: bool = True):
    """A tensor over the 1-d float64 vector vec, and one leaf per shape whose
    data are consecutive views into it (views()). With requires_grad, each
    leaf's grad is the same view into the tensor's grad, so backward() fills
    the one flat gradient, and Adam on the tensor updates every leaf."""
    flat = Tensor(vec, requires_grad)
    leaves = [Tensor(d) for d in views(flat.data, shapes)]
    for leaf, g in zip(leaves, views(flat.grad, shapes) if requires_grad else ()):
        leaf.requires_grad, leaf.grad = True, g
    return flat, leaves


class FlatModel:
    """A model whose named parameters (params) view one flat tensor (flat; see
    flat_leaves). spec holds each parameter's (name, shape), in vec's order."""

    def __init__(self, vec: np.ndarray, spec, requires_grad: bool = True):
        self.flat, leaves = flat_leaves(vec, [shape for _, shape in spec], requires_grad)
        self.params = {name: leaf for (name, _), leaf in zip(spec, leaves)}

    def zero_grad(self):
        self.flat.grad.fill(0.0)

    def copy(self):
        """Untracked copy over its own copy of the vector, other attributes (a
        config) shared: forward passes through it record no tape."""
        other = shallow_copy(self)
        FlatModel.__init__(other, self.flat.data.copy(),
                           [(name, p.data.shape) for name, p in self.params.items()], False)
        return other


class Adam:
    """Standard Adam over one flat parameter tensor (see flat_leaves)."""

    def __init__(self, flat: Tensor, lr: float):
        self.flat = flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat.data)
        self.v = np.zeros_like(flat.data)

    def update(self, loss: Tensor, grad_hook=None) -> float:
        """One update that minimises loss: zero the flat gradient, backward(),
        let grad_hook() rewrite the gradient (A-GEM), step. Returns the loss."""
        self.flat.grad.fill(0.0)
        backward(loss)
        if grad_hook is not None:
            grad_hook()
        self.step()
        return loss.item()

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        # in place, a BLOCK at a time so its arrays stay in cache: m = b1*m +
        # (1-b1)*g; v = b2*v + (1-b2)*g*g; data -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        for lo in range(0, self.m.size, BLOCK):
            g, m, v = (a[lo:lo + BLOCK] for a in (self.flat.grad, self.m, self.v))
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
            self.flat.data[lo:lo + BLOCK] -= buf
