"""Small deterministic neural-network layers with hand-written gradients.

Everything is float64 and seeded: a run's parameter trajectory is a pure
function of (seed, data). A layer caches what its backward pass reads
from its last forward pass, until `clear_caches` drops it. Its backward
pass writes the parameter gradients of that forward pass over its
gradient arrays, never adding to what they held, so a network needs no
zeroing between passes. Shapes are tiny here, so clarity wins over
cleverness; the kernels live in :mod:`fxppo.kernels`.

A network is declared once, as a layer table: rows ``(tag, layer class,
args)`` in arena order (:class:`Net`). The table builds the layers, in
the order they draw their initial values, and names the checkpoint
blocks ``<tag>.<param>``; :func:`block_shapes` gives the blocks' shapes
without building anything. A network keeps all of its parameters in one
flat array and all of its gradients in another, its arena, allocated
once from the table's shapes; each layer is built on its own stretch of
both (the ``arena`` argument of the layer constructors), draws its
initial values straight into it, and its weight, bias and gradient
attributes are views into it, which the kernels write into. Adam then
updates a whole network with one pass of its ufuncs. A layer built on
its own owns its arrays.

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


class _Layer:
    """A layer names its parameter attributes in ``PARAMS`` and their
    gradient arrays in ``GRADS``, in matching order; its static
    ``shapes`` takes the constructor's arguments but ``rng`` and ``arena``
    and returns ``{param: shape}`` in ``PARAMS`` order without allocating."""

    def _allocate(self, rng, arena, *sizes):
        """Binds every parameter of ``shapes(*sizes)``, in order, to a view
        into ``arena[0]`` and its gradient to a view into ``arena[1]``: two
        flat float64 arrays of the layer's parameter count, zero on entry,
        or two of the layer's own when ``arena`` is None. With ``rng``,
        each matrix then draws its values by `init_uniform`, its row count
        as fan-in; biases stay at zero, and so does everything without."""
        shapes = list(self.shapes(*sizes).values())
        if arena is None:
            arena = (np.zeros(_count(shapes)), np.zeros(_count(shapes)))
        params, grads = (_views(flat, shapes) for flat in arena)
        for p, g, view, grad, shape in zip(self.PARAMS, self.GRADS, params, grads, shapes):
            if rng is not None and len(shape) == 2:
                view[...] = init_uniform(rng, shape, shape[0])
            setattr(self, p, view)
            setattr(self, g, grad)

    def params(self):
        return [getattr(self, name) for name in self.PARAMS]


class DenseLayer(_Layer):
    """Fully connected layer, ``y = act(x @ w + b)`` with ``act`` one of
    :data:`ACTIVATIONS`.

    ``forward`` takes a (T, in) or (in,) array and makes one gemm over the
    call, a one-row call padded to two rows (`kernels.two_or_more_rows`):
    NumPy makes a one-row product a gemv, whose bits differ from a gemm
    row's. At the shapes where a gemm row does not depend on the row count
    (`fxppo.kernels`), every row then has the bits it has in a call of any
    other row count, which the policy's exact rollout/replay agreement
    needs.
    The bias and the ReLU are applied in place on the kernel's product,
    and the layer caches ``(x, y)``, its input and its output: the ReLU's
    mask is ``y > 0``, which is ``x @ w + b > 0`` bit for bit.
    The backward pass is the gemm kernel, which writes ``dw`` and ``db``.
    ``backward`` returns the gradient on the input, a gemm on the
    transposed view of ``w``; ``backward_params`` makes only the parameter
    gradients, for the first layer of a network, whose input gradient
    nothing reads.
    """

    PARAMS = ("w", "b")
    GRADS = ("dw", "db")

    def __init__(self, in_size, out_size, activation="identity", rng=None, arena=None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.out_size = out_size
        self.relu = activation == "relu"
        self._allocate(rng, arena, in_size, out_size)
        self._cache = None

    @staticmethod
    def shapes(in_size, out_size, activation="identity"):
        return {"w": (in_size, out_size), "b": (out_size,)}

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_size:
            raise ShapeMismatch(
                f"dense expects input size {self.in_size}, got {x.shape[1]}"
            )
        padded = kernels.two_or_more_rows(x)
        y = kernels.dense_gemm_forward(padded, self.w, self.b)[: x.shape[0]]
        if self.relu:
            np.maximum(y, 0.0, out=y)
        self._cache = (x, y)
        return y

    def backward_params(self, dy):
        """Writes the parameter gradients for the output gradient ``dy``
        into dw and db; returns the gradient on the pre-activation."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, y = self._cache
        dy = np.asarray(dy, dtype=np.float64)
        if dy.shape != y.shape:
            raise ShapeMismatch(f"gradient shape {dy.shape} != output {y.shape}")
        dpre = dy * (y > 0.0) if self.relu else dy
        kernels.dense_gemm_backward(x, dpre, self.dw, self.db)
        return dpre

    def backward(self, dy):
        """`backward_params`, then the gradient on the input."""
        return np.dot(self.backward_params(dy), self.w.T)


class LSTMLayer(_Layer):
    """Single LSTM layer with sigmoid gates and tanh candidate/output.

    Fused gate weights: ``wx`` (in, 4H), ``wh`` (H, 4H), ``b`` (4H,), gate
    order input/forget/candidate/output. With all-zero parameters the
    hidden state stays at zero.
    """

    PARAMS = ("wx", "wh", "b")
    GRADS = ("dwx", "dwh", "db")

    def __init__(self, input_size, hidden_size, rng=None, arena=None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._allocate(rng, arena, input_size, hidden_size)
        self._cache = None

    @staticmethod
    def shapes(input_size, hidden_size):
        gates = 4 * hidden_size
        return {"wx": (input_size, gates), "wh": (hidden_size, gates), "b": (gates,)}

    def initial_state(self):
        return np.zeros(self.hidden_size), np.zeros(self.hidden_size)

    def forward(self, x, h0, c0, resets, keep=True):
        """Returns (hs, hT, cT) for a (T, in) sequence from (H,) state, or
        for N lanes stepped together from (N, H) state over (T * N, in)
        rows, time-major (see `kernels.lstm_seq_forward`); ``resets[t]``
        nonzero zeroes the state entering row t. With ``keep`` false no
        backward pass can follow: the kernel keeps no per-row gates or
        states and the layer caches nothing."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise ShapeMismatch(
                f"lstm expects input size {self.input_size}, got {x.shape[1]}"
            )
        h0 = np.asarray(h0, dtype=np.float64)
        c0 = np.asarray(c0, dtype=np.float64)
        lanes = h0.shape[0] if h0.ndim == 2 else 1
        if (h0.ndim not in (1, 2) or h0.shape[-1] != self.hidden_size or c0.shape != h0.shape
                or lanes == 0 or x.shape[0] % lanes):
            raise ShapeMismatch(
                f"state {h0.shape}/{c0.shape} does not fit hidden size {self.hidden_size} "
                f"and {x.shape[0]} rows"
            )
        resets = np.ascontiguousarray(resets, dtype=np.uint8)
        hs, tanhc, gates, hprev, cprev, hT, cT = kernels.lstm_seq_forward(
            x, resets, h0, c0, self.wx, self.wh, self.b, keep,
        )
        self._cache = (x, resets, gates, tanhc, hprev, cprev, h0.shape) if keep else None
        return hs, hT, cT

    def backward(self, dh_out):
        """Writes the parameter gradients given per-step gradients on the
        outputs into dwx, dwh and db (`kernels.lstm_seq_backward`). One
        lane only: the forward must have started from (H,) state."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, resets, gates, tanhc, hprev, cprev, state_shape = self._cache
        if state_shape != (self.hidden_size,):
            raise ShapeMismatch(f"backward runs one lane; the forward's state was {state_shape}")
        dh_out = np.asarray(dh_out, dtype=np.float64)
        if dh_out.shape != (x.shape[0], self.hidden_size):
            raise ShapeMismatch("dh_out shape mismatch")
        kernels.lstm_seq_backward(
            x, resets, gates, tanhc, hprev, cprev, self.wh, dh_out,
            self.dwx, self.dwh, self.db,
        )


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
    """Scales the flat gradient array ``grads`` (a net's arena) in place so
    that its L2 norm is at most ``max_norm``; returns the norm before.
    The squares are summed by ``np.sum``, whose pairwise sum gives the
    same bits under any BLAS thread count, which ``np.dot``'s does not."""
    norm = np.sqrt(np.sum(grads * grads))
    if max_norm > 0 and norm > max_norm:
        grads *= max_norm / (norm + 1e-12)
    return norm


class Adam:
    """Adam with bias correction over one flat parameter array.

    A network's optimizer gets the flat ``params`` of its :class:`Net`, so
    ``m`` and ``v`` are flat too, laid out like the parameters. Every
    operation is elementwise, so stepping the flat array gives each
    parameter the bits that stepping its layer's array alone would.

    ``step`` takes Kingma and Ba's efficient form (ICLR 2015, section 2):
    after ``m = b1 m + (1 - b1) g`` and ``v = b2 v + (1 - b2) g**2``,
    ``p -= a * (m / (sqrt(v) + eps * sqrt(b2t)))`` with
    ``a = lr * sqrt(b2t) / b1t``, ``b1t = 1 - b1**t``, ``b2t = 1 - b2**t``.
    That is the bias-corrected ``lr * (m / b1t) / (sqrt(v / b2t) + eps)``
    up to rounding, made in place through one scratch array with one sqrt
    and one divide over the parameters.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty_like(params)

    def step(self, grads):
        if grads.shape != self.params.shape:
            raise ShapeMismatch("gradient/parameter shape mismatch")
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        root_b2t = np.sqrt(1.0 - b2**self.step_count)
        step_size = self.lr * root_b2t / (1.0 - b1**self.step_count)
        m, v, s = self.m, self.v, self._scratch
        m *= b1
        np.multiply(grads, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(grads, grads, out=s)
        s *= 1.0 - b2
        v += s
        np.sqrt(v, out=s)
        s += self.EPS * root_b2t
        np.divide(m, s, out=s)
        s *= step_size
        self.params -= s


def _count(shapes):
    """The number of values in arrays of the given shapes."""
    return sum(int(np.prod(shape)) for shape in shapes)


def _views(flat, shapes):
    """Views of the flat array ``flat`` of the given shapes, which lie in it
    end to end in order."""
    views = []
    offset = 0
    for shape in shapes:
        size = _count([shape])
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def split_flat(flat, like):
    """Views of the flat array ``flat`` shaped like the arrays ``like``,
    which lie in it end to end in order."""
    return _views(flat, [a.shape for a in like])


def block_shapes(table):
    """``{"<tag>.<param>": shape}`` of the layer table ``table``, in arena
    order, without building a layer."""
    return {f"{tag}.{param}": shape for tag, cls, args in table
            for param, shape in cls.shapes(*args).items()}


class Net:
    """A network built from a layer table. Its arena, the flat ``params``
    and ``grads``, is allocated first from the layers' shapes; then each
    row's layer is built as ``cls(*args, rng=rng, arena=...)`` on its
    stretch of both, in table order, the order the layers draw their
    initial values, and becomes attribute ``tag``. ``layers`` lists them
    in that order. No parameter is copied: each value is drawn where it
    lives."""

    def __init__(self, table, rng=None):
        ends = np.cumsum([_count(cls.shapes(*args).values()) for _, cls, args in table])
        self.params = np.zeros(ends[-1])
        self.grads = np.zeros_like(self.params)
        stretches = zip(np.split(self.params, ends[:-1]), np.split(self.grads, ends[:-1]))
        self.tags = [tag for tag, _, _ in table]
        self.layers = [cls(*args, rng=rng, arena=arena)
                       for (_, cls, args), arena in zip(table, stretches)]
        for tag, layer in zip(self.tags, self.layers):
            setattr(self, tag, layer)

    def param_blocks(self):
        """``{"<tag>.<param>": view}`` in arena order."""
        return {f"{tag}.{param}": getattr(layer, param)
                for tag, layer in zip(self.tags, self.layers) for param in layer.PARAMS}

    def load_param_blocks(self, blocks):
        for name, target in self.param_blocks().items():
            target[:] = blocks[name]


def clear_caches(layers):
    """Forgets each layer's last forward pass, so that an inference pass
    leaves no batch-sized array reachable from its model."""
    for layer in layers:
        layer._cache = None
