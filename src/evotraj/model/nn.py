"""Neural-net building blocks in numpy with hand-written backward passes.

Everything runs in float64. Layers cache what their backward pass needs; call
order must be forward then backward, once per step. Each module runs once per
forward, so its backward writes Parameter.grad rather than adding to it: no
gradient needs zeroing between steps, and a second backward of the same
forward leaves the same gradients. A training step's output head is run by
its loss, not by ``Linear``: ``transformer.masked_cross_entropy`` makes the
logits and the head's gradient one bounded block of vocabulary columns at a
time, and hands each block of the gradient to the optimizer, so the head's
weight has no gradient array (its ``grad`` is None). An embedding's weight
is row-wise: its gradient holds only the rows of the last backward's ids,
row i for the row named by Parameter.rows[i], and Adam keeps its moments
only for the rows that have ever had a gradient. So no gradient array of
the vocabulary's size is made for either.
"""

from __future__ import annotations

import math

import numpy as np

DTYPE = np.float64
LAYER_NORM_EPS = 1e-5
ROPE_BASE = 10_000.0


class Parameter:
    __slots__ = ("value", "grad", "rows")

    def __init__(self, value: np.ndarray, row_wise: bool = False):
        self.value = np.asarray(value, dtype=DTYPE)
        # row-wise: grad[i] is the gradient of row rows[i], sorted and
        # distinct, and every other row's gradient is zero. None: grad has
        # value's shape, or is None where its owner makes none (the output
        # head). np.zeros, not zeros_like: a large array's zero pages
        # come from the OS on first touch, so a model used only for
        # inference never pays for its gradients
        self.rows: np.ndarray | None = np.empty(0, dtype=np.intp) if row_wise else None
        shape = (0, *self.value.shape[1:]) if row_wise else self.value.shape
        self.grad = np.zeros(shape, dtype=DTYPE)


class Module:
    def parameters(self) -> dict[str, Parameter]:
        """Flat name -> Parameter map, recursing into child modules."""
        out: dict[str, Parameter] = {}
        for name, attr in vars(self).items():
            if isinstance(attr, Parameter):
                out[name] = attr
            elif isinstance(attr, Module):
                for sub, p in attr.parameters().items():
                    out[f"{name}.{sub}"] = p
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        for sub, p in item.parameters().items():
                            out[f"{name}.{i}.{sub}"] = p
        return out


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)), row_wise=True)
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return self.weight.value[ids]

    def backward(self, grad_out: np.ndarray) -> None:
        """Write the gradient of the ids' distinct rows only. Each row sums
        its ids' gradients in the ids' order, as a scatter-add into the full
        table would."""
        w = self.weight
        w.rows, slot = np.unique(self._ids, return_inverse=True)
        w.grad = np.zeros((len(w.rows), grad_out.shape[-1]), dtype=DTYPE)
        np.add.at(w.grad, slot.reshape(-1), grad_out.reshape(-1, grad_out.shape[-1]))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        limit = math.sqrt(6.0 / (d_in + d_out))
        self.weight = Parameter(rng.uniform(-limit, limit, size=(d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out)) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x is (..., d_in); all leading axes go through one 2-D GEMM."""
        self._x = x
        y = x.reshape(-1, x.shape[-1]) @ self.weight.value
        if self.bias is not None:
            y += self.bias.value
        return y.reshape(*x.shape[:-1], y.shape[-1])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x2 = self._x.reshape(-1, self._x.shape[-1])
        g2 = grad_out.reshape(-1, grad_out.shape[-1])
        np.matmul(x2.T, g2, out=self.weight.grad)
        if self.bias is not None:
            np.sum(g2, axis=0, out=self.bias.grad)
        return (g2 @ self.weight.value.T).reshape(self._x.shape)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self._std = np.sqrt(var + LAYER_NORM_EPS)
        self._xhat = (x - mu) / self._std
        return self.gain.value * self._xhat + self.shift.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, std = self._xhat, self._std
        axes = tuple(range(grad_out.ndim - 1))
        np.sum(grad_out * xhat, axis=axes, out=self.gain.grad)
        np.sum(grad_out, axis=axes, out=self.shift.grad)
        dxhat = grad_out * self.gain.value
        return (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) / std


class Gelu(Module):
    """tanh-approximation GELU. Powers are written as products: in numpy,
    float ``x**3`` goes through ``pow`` and is far slower than two multiplies."""

    _C = math.sqrt(2.0 / math.pi)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._tanh = np.tanh(self._C * (x + 0.044715 * (x * x * x)))
        return 0.5 * x * (1.0 + self._tanh)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """grad_out * (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 * 0.044715 x^2)),
        with t the forward's tanh, in three buffers: each operation is the
        formula's, on the same operands in the same order, so every bit is."""
        x, t = self._x, self._tanh
        du = np.multiply(x, x)
        du *= 3 * 0.044715
        du += 1.0
        du *= self._C
        slope = np.multiply(t, t)
        np.subtract(1.0, slope, out=slope)
        out = np.multiply(x, 0.5)
        slope *= out
        slope *= du
        np.add(t, 1.0, out=out)
        out *= 0.5
        out += slope
        out *= grad_out
        return out


def rope_angles(positions: np.ndarray, head_dim: int) -> np.ndarray:
    """(len(positions), head_dim/2) rotation angles."""
    inv_freq = ROPE_BASE ** (-np.arange(0, head_dim, 2, dtype=DTYPE) / head_dim)
    return positions[:, None].astype(DTYPE) * inv_freq[None, :]


def rope_rotate(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate feature pairs of x (..., T, head_dim) by per-position angles."""
    cos, sin = np.cos(angles), np.sin(angles)
    x_even, x_odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, written to ``out`` when given (``out=x``
    computes it in place)."""
    shifted = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


class CausalSelfAttention(Module):
    """Multi-head causal self-attention with rotary position embeddings."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        if dim % n_heads != 0:
            raise ValueError("hidden size must divide evenly into heads")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        if self.head_dim % 2 != 0:
            raise ValueError("head dimension must be even for rotary embeddings")
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(self, x: np.ndarray, positions: np.ndarray | None = None) -> np.ndarray:
        b, t, _ = x.shape
        if positions is None:
            positions = np.arange(t)
        self._angles = rope_angles(positions, self.head_dim)
        q = self._split(self.wq.forward(x))
        k = self._split(self.wk.forward(x))
        v = self._split(self.wv.forward(x))
        qr = rope_rotate(q, self._angles)
        kr = rope_rotate(k, self._angles)

        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (qr @ kr.transpose(0, 1, 3, 2)) * scale
        causal = np.tril(np.ones((t, t), dtype=bool))
        scores = np.where(causal, scores, -np.inf)
        attn = softmax(scores)
        ctx = attn @ v

        self._qr, self._kr, self._v, self._attn = qr, kr, v, attn
        return self.wo.forward(self._merge(ctx))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        qr, kr, v, attn = self._qr, self._kr, self._v, self._attn
        scale = 1.0 / math.sqrt(self.head_dim)

        d_ctx = self._split(self.wo.backward(grad_out))
        d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
        # softmax jacobian; masked entries have attn == 0 so they vanish
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= scale
        d_qr = d_scores @ kr
        d_kr = d_scores.transpose(0, 1, 3, 2) @ qr
        # rotation is orthogonal: transpose = rotation by the negated angle
        d_q = rope_rotate(d_qr, -self._angles)
        d_k = rope_rotate(d_kr, -self._angles)

        dx = self.wq.backward(self._merge(d_q))
        dx += self.wk.backward(self._merge(d_k))
        dx += self.wv.backward(self._merge(d_v))
        return dx


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.up = Linear(dim, hidden, rng)
        self.act = Gelu()
        self.down = Linear(hidden, dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.down.forward(self.act.forward(self.up.forward(x)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.up.backward(self.act.backward(self.down.backward(grad_out)))


class Block(Module):
    """Pre-norm transformer block: x + attn(ln(x)), then x + mlp(ln(x))."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = CausalSelfAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = FeedForward(dim, 4 * dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward(self.ln1.forward(x))
        return x + self.mlp.forward(self.ln2.forward(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        dx = grad_out + self.ln2.backward(self.mlp.backward(grad_out))
        return dx + self.ln1.backward(self.attn.backward(dx))
