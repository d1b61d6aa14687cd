"""Small deterministic neural-network layers with hand-written gradients.

Everything is float64 and seeded: a run's parameter trajectory is a pure
function of (seed, data). Layers cache their last forward pass and
accumulate parameter gradients on backward, in the usual
from-scratch-numpy style. Shapes are tiny here, so clarity wins over
cleverness; the kernels live in :mod:`fxppo.kernels`.

Weight matrices are stored input-major, ``w[i, j]`` mapping input ``i`` to
output ``j``; a dense layer computes ``act(x @ w + b)``.
"""

import numpy as np

from . import kernels

ACTIVATIONS = ("identity", "relu")


class ShapeMismatch(ValueError):
    pass


class NonFiniteValue(FloatingPointError):
    """A forward/backward pass or loss produced NaN or Inf."""


def init_uniform(rng, shape, fan_in):
    """Uniform init in +/- 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseLayer:
    """Fully connected layer, ``y = act(x @ w + b)`` with ``act`` one of
    :data:`ACTIVATIONS`.

    ``forward`` takes a (T, in) or (in,) array. ``rows=True`` selects the
    row-at-a-time forward kernel, whose outputs do not depend on how rows
    are batched together; the recurrent policy path needs that for exact
    rollout/replay agreement. The batched gemm forward is the default.
    ``backward`` is the gemm kernel either way.
    """

    def __init__(self, in_size, out_size, activation="identity", rng=None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.out_size = out_size
        self.relu = activation == "relu"
        if rng is not None:
            self.w = init_uniform(rng, (in_size, out_size), in_size)
        else:
            self.w = np.zeros((in_size, out_size))
        self.b = np.zeros(out_size)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x, rows=False):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_size:
            raise ShapeMismatch(
                f"dense expects input size {self.in_size}, got {x.shape[1]}"
            )
        if rows:
            pre = kernels.dense_rows_forward(x, self.w, self.b)
        else:
            pre = kernels.dense_gemm_forward(x, self.w, self.b)
        self._cache = (x, pre)
        return np.maximum(pre, 0.0) if self.relu else pre

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, pre = self._cache
        dy = np.asarray(dy, dtype=np.float64)
        if dy.shape != pre.shape:
            raise ShapeMismatch(f"gradient shape {dy.shape} != output {pre.shape}")
        dpre = dy * (pre > 0.0) if self.relu else dy
        dx, dw, db = kernels.dense_gemm_backward(x, self.w, dpre)
        self.dw += dw
        self.db += db
        return dx

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


class LSTMLayer:
    """Single LSTM layer with sigmoid gates and tanh candidate/output.

    Fused gate weights: ``wx`` (in, 4H), ``wh`` (H, 4H), ``b`` (4H,), gate
    order input/forget/candidate/output. With all-zero parameters the
    hidden state stays at zero.
    """

    def __init__(self, input_size, hidden_size, rng=None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        if rng is not None:
            self.wx = init_uniform(rng, (input_size, 4 * hidden_size), input_size)
            self.wh = init_uniform(rng, (hidden_size, 4 * hidden_size), hidden_size)
        else:
            self.wx = np.zeros((input_size, 4 * hidden_size))
            self.wh = np.zeros((hidden_size, 4 * hidden_size))
        self.b = np.zeros(4 * hidden_size)
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def initial_state(self):
        return np.zeros(self.hidden_size), np.zeros(self.hidden_size)

    def forward(self, x, h0=None, c0=None, resets=None):
        """Returns (hs, hT, cT) for a (T, in) sequence."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        T = x.shape[0]
        if x.shape[1] != self.input_size:
            raise ShapeMismatch(
                f"lstm expects input size {self.input_size}, got {x.shape[1]}"
            )
        if h0 is None:
            h0, c0 = self.initial_state()
        if h0.shape != (self.hidden_size,) or c0.shape != (self.hidden_size,):
            raise ShapeMismatch("hidden/cell state shape mismatch")
        if resets is None:
            resets = np.zeros(T, dtype=np.uint8)
        else:
            resets = np.ascontiguousarray(resets, dtype=np.uint8)
        hs, cs, tanhc, gates, hprev, cprev, hT, cT = kernels.lstm_seq_forward(
            x, resets, np.asarray(h0, dtype=np.float64), np.asarray(c0, dtype=np.float64),
            self.wx, self.wh, self.b,
        )
        self._cache = (x, resets, gates, cs, tanhc, hprev, cprev)
        return hs, hT, cT

    def backward(self, dh_out, dh_final=None, dc_final=None):
        """Returns (dx, dh0, dc0) given per-step gradients on the outputs."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, resets, gates, cs, tanhc, hprev, cprev = self._cache
        dh_out = np.asarray(dh_out, dtype=np.float64)
        if dh_out.shape != (x.shape[0], self.hidden_size):
            raise ShapeMismatch("dh_out shape mismatch")
        if dh_final is None:
            dh_final = np.zeros(self.hidden_size)
        if dc_final is None:
            dc_final = np.zeros(self.hidden_size)
        dx, dwx, dwh, db, dh0, dc0 = kernels.lstm_seq_backward(
            x, resets, gates, cs, tanhc, hprev, cprev,
            self.wx, self.wh, dh_out, dh_final, dc_final,
        )
        self.dwx += dwx
        self.dwh += dwh
        self.db += db
        return dx, dh0, dc0

    def params(self):
        return [self.wx, self.wh, self.b]

    def grads(self):
        return [self.dwx, self.dwh, self.db]


def softmax(logits):
    """Row-wise softmax; strictly positive, rows sum to 1."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits):
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def mse_loss(estimates, targets):
    """Mean squared error and its gradient w.r.t. the estimates."""
    estimates = np.asarray(estimates, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if estimates.shape != targets.shape:
        raise ShapeMismatch("estimates/targets shape mismatch")
    diff = estimates - targets
    loss = float(np.mean(diff * diff))
    dest = 2.0 * diff / diff.size
    return loss, dest


def clip_grad_norm(grads, max_norm):
    """Scale gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Adam with bias correction; state mirrors the parameter list.

    ``step`` updates in place through two scratch arrays per parameter, in
    the operation order of ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``
    with ``m = b1 m + (1 - b1) g`` and ``v = b2 v + (1 - b2) g**2``, so it
    gives the same bits as that formula written with temporaries.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in self.params]

    def step(self, grads):
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ShapeMismatch("gradient list length mismatch")
        self.step_count += 1
        b1t = 1.0 - self.beta1**self.step_count
        b2t = 1.0 - self.beta2**self.step_count
        for p, g, m, v, (s1, s2) in zip(self.params, grads, self.m, self.v, self._scratch):
            if g.shape != p.shape:
                raise ShapeMismatch("gradient/parameter shape mismatch")
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - self.beta2
            v += s1
            np.divide(m, b1t, out=s1)
            s1 *= self.lr
            np.divide(v, b2t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            p -= s1

    def state_arrays(self):
        """Moment arrays in parameter order, for checkpointing."""
        return self.m, self.v


def zero_grads(layers):
    for layer in layers:
        for g in layer.grads():
            g[:] = 0.0


def collect_params(layers):
    out = []
    for layer in layers:
        out.extend(layer.params())
    return out


def collect_grads(layers):
    out = []
    for layer in layers:
        out.extend(layer.grads())
    return out
