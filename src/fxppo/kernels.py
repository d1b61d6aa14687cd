"""Numeric hot kernels: dense/LSTM passes and the K-Means inner loops.

Plain numpy float64. The dense kernels compute only the affine map
``x @ w + b`` and its gradients; :class:`fxppo.nn.DenseLayer` applies the
activation.

Row independence is a property of the policy's forward products: a row
gets the same bits in a one-row call, a 32-row replay slice and a call
of N lanes, so a rollout, the update that replays it and the backtest,
which steps every episode of a split as a lane, all agree. Every product
is a gemm, and a gemm gives each row the bits of the same row in a gemm
of any other row count at the policy's shapes: the LSTM's input and
recurrent products, the trunk layers and the one fused head layer
(64-16). That holds for the SkylakeX kernel of OpenBLAS 0.3.31, which
a DYNAMIC_ARCH build picks on AVX-512 hosts (``tests/test_nn.py`` checks
2 to 6 000 rows), but is not a property of numpy: under its Haswell
kernel rows agree only at even row counts. NumPy makes a one-row product
a gemv, whose bits differ from a gemm row's, so a one-row call is padded
with a zero row (:func:`two_or_more_rows`, or the LSTM's pad row).
Narrower products lack the property (64-3, 64-12 and 64-1 each differ at
some row counts), which is why the three heads are one 16-output layer.

The backward kernels are gemms. Weight gradients are sums of gemms over
fixed ``GRAD_BLOCK_ROWS``-row blocks (:func:`block_sum_tn`), so their bits
depend neither on how a minibatch is batched nor on the BLAS thread count:
a single gemm whose reduction runs over a few hundred rows gives different
bits under one and two OpenBLAS threads.
"""

import numpy as np

# Every batch the defaults and ``tune`` reach (PPO and autoencoder
# minibatches of 32, tune batches of 16-64) is one block, where the block
# sum is the plain gemm.
GRAD_BLOCK_ROWS = 64


def block_sum_tn(a, d):
    """``a.T @ d`` for (T, m) and (T, n) arrays, as the left-to-right sum
    of gemms over consecutive ``GRAD_BLOCK_ROWS``-row blocks."""
    B = GRAD_BLOCK_ROWS
    out = np.dot(np.ascontiguousarray(a[:B].T), d[:B])
    for s in range(B, a.shape[0], B):
        out += np.dot(np.ascontiguousarray(a[s : s + B].T), d[s : s + B])
    return out


# Neither this nor `dense_rows_backward` has a caller since every dense
# product became a gemm; both go with the next change to perfbench,
# whose traced metrics still name them.
def dense_rows_forward(x, w, b):
    """(T, in) @ (in, out) + b as T vector-matrix products: the stacked
    matmul makes one gemv per row, so every row has the bits it would have
    alone; b is added in place."""
    out = np.matmul(x[:, None, :], w)[:, 0, :]
    out += b
    return out


def dense_rows_backward(x, w, dpre):
    """(dx, dw, db) of the affine map given the gradient on its output."""
    T = x.shape[0]
    n_in, n_out = w.shape
    wT = np.ascontiguousarray(w.T)
    dx = np.empty((T, n_in), dtype=np.float64)
    dw = np.zeros((n_in, n_out), dtype=np.float64)
    db = np.zeros(n_out, dtype=np.float64)
    for t in range(T):
        dx[t, :] = np.dot(dpre[t], wT)
        dw += x[t].reshape(n_in, 1) * dpre[t].reshape(1, n_out)
        db += dpre[t]
    return dx, dw, db


def dense_gemm_forward(x, w, b):
    out = np.dot(x, w)
    out += b
    return out


def two_or_more_rows(x):
    """``x``, or a one-row ``x`` with a zero row below it: numpy makes a
    one-row product a gemv, whose bits differ from a gemm row's."""
    if x.shape[0] != 1:
        return x
    padded = np.zeros((2, x.shape[1]), dtype=np.float64)
    padded[:1] = x
    return padded


def dense_gemm_backward(x, dpre):
    """(dw, db) of the affine map given the gradient on its output; the
    caller that needs the input gradient makes it (`DenseLayer.backward`)."""
    dw = block_sum_tn(x, dpre)
    db = np.sum(dpre, axis=0)
    return dw, db


def lstm_seq_forward(x, resets, h0, c0, wx, wh, b, keep=True):
    """Run an LSTM over N lanes, independent sequences stepped together.

    The state is (N, H), or (H,) for one lane. ``x`` holds one row per
    (step, lane), time-major: row ``t * N + n`` is lane n's step t, so a
    one-lane ``x`` is the plain (T, in) sequence. resets[row] != 0 zeroes
    that lane's carried state before it consumes the row, which is how
    episode boundaries are replayed. Gate order in the fused weight
    matrices is input, forget, candidate, output.

    Returns (hs, tanhc, gates, hprev, cprev, hT, cT): per row the hidden
    state, the tanh of the cell state, the gate activations, and in
    hprev/cprev the state *before* the step, so any sub-segment can be
    replayed later; then the final state, shaped like ``h0``.

    Both products are gemms whose rows do not depend on the row count
    (module docstring). The input product ``x @ wx`` is one gemm over
    every row of the call, made before the loop; each step adds the
    recurrent product ``h @ wh``, one gemm over the N lanes, and ``b``,
    and writes its gates straight into the step's rows of ``gates``.
    The lanes' state lives in the first N rows of the recurrent gemm's
    left operand; one lane gets a zero pad row there, made once per call,
    so that its product is a gemm too. Every other operation is
    elementwise over the (N, .) step, so each lane row has exactly the
    bits it has in a one-lane or one-row call.

    With ``keep`` false no backward pass follows, and the call keeps only
    hs for every row, H float64 a row instead of 12H: each step makes its
    own rows' input product (one gemm over the lanes, padded the same
    way) and writes its gates and tanh(c) to one step's scratch rows,
    which the next step overwrites; no entry state is stored. tanhc,
    gates, hprev and cprev come back as None, and hs, hT and cT have the
    bits of the pass that keeps them. A one-row call takes this per-step
    path whatever ``keep`` says.
    """
    H = h0.shape[-1]
    N = 1 if h0.ndim == 1 else h0.shape[0]
    T = x.shape[0] // N
    # the rows of gates and tanhc: every step's, or one step's scratch
    S = T if keep else 1
    hs = np.empty((T * N, H), dtype=np.float64)
    tanhc = np.empty((S * N, H), dtype=np.float64)
    gates = np.empty((S * N, 4 * H), dtype=np.float64)
    # each step's gemms run over P >= 2 rows, the lanes' and a lone lane's pad
    P = max(N, 2)
    h_rows = np.zeros((P, H), dtype=np.float64)
    hw = np.empty((P, 4 * H), dtype=np.float64)
    # the input product: one gemm over the call, or one per step
    whole = keep and T * N > 1
    if whole:
        xw = np.dot(x, wx).reshape(T, N, 4 * H)
    else:
        x_rows = np.zeros((P, x.shape[1]), dtype=np.float64)
        xw_step = np.empty((P, 4 * H), dtype=np.float64)
    # (T, N, .) views whose [t] is step t's rows (S for gates and tanhc)
    hs_t = hs.reshape(T, N, H)
    tanhc_t = tanhc.reshape(S, N, H)
    gates_t = gates.reshape(S, N, 4 * H)
    if keep:
        hprev = np.empty((T * N, H), dtype=np.float64)
        cprev = np.empty((T * N, H), dtype=np.float64)
        hprev_t, cprev_t = hprev.reshape(T, N, H), cprev.reshape(T, N, H)
    i, f = gates_t[..., :H], gates_t[..., H : 2 * H]
    g, o = gates_t[..., 2 * H : 3 * H], gates_t[..., 3 * H :]
    reset_steps = set((np.flatnonzero(resets) // N).tolist())
    h = h_rows[:N]
    h[...] = h0.reshape(N, H)
    c = c0.reshape(N, H).copy()
    for t in range(T):
        s = t if keep else 0
        if t in reset_steps:
            lane_reset = resets[t * N : (t + 1) * N] != 0
            h[lane_reset] = 0.0
            c = np.where(lane_reset[:, None], 0.0, c)
        if keep:
            hprev_t[t] = h
            cprev_t[t] = c
        # z = x[t] @ wx + h @ wh + b, summed in that order
        if whole:
            z = xw[t]
        else:
            x_rows[:N] = x[t * N : (t + 1) * N]
            z = np.dot(x_rows, wx, out=xw_step)[:N]
        z += np.dot(h_rows, wh, out=hw)[:N]
        z += b
        # one sigmoid over all four gates, then tanh overwrites the candidate
        gate = gates_t[s]
        np.negative(z, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
        np.tanh(z[:, 2 * H : 3 * H], out=g[s])
        c = f[s] * c + i[s] * g[s]
        np.tanh(c, out=tanhc_t[s])
        np.multiply(o[s], tanhc_t[s], out=hs_t[t])
        h[...] = hs_t[t]
    hT, cT = h.reshape(h0.shape).copy(), c.reshape(c0.shape)
    if not keep:
        return hs, None, None, None, None, hT, cT
    return hs, tanhc, gates, hprev, cprev, hT, cT


def lstm_seq_backward(x, resets, gates, tanhc, hprev, cprev, wh, dh_out):
    """Backprop through time for `lstm_seq_forward`: (dwx, dwh, db) given
    dh_out, the per-step upstream gradient on hs.

    The carried gradient starts at zero at the sequence end and no
    gradient flows into the entry state or the inputs: updates replay
    slices from a stored state that no gradient reaches. Gradient flow
    stops at reset steps (the pre-reset state never influenced anything
    after the reset).

    Every factor that does not depend on the carried gradient is made for
    all T rows before the loop: ``1 - tanh(c)**2``, the gate derivative
    factors ``[i, f, 1 - g**2, o]`` (written straight into the rows of the
    gate gradient) and ``[1 - i, 1 - f, 1, 1 - o]``, and ``[g, cprev, i]``,
    which turn ``dc`` into the input, forget and candidate gradients. The
    recurrence then runs row by row, about ten numpy calls around its one
    gemv, and keeps the association of one expression per gate, e.g.
    ``(di * i) * (1 - i)``: the exact ``* 1`` and the commuted products
    leave every bit as it was. The parameter gradients are then gemms over
    all steps.
    """
    T = x.shape[0]
    H = tanhc.shape[1]
    whT = np.ascontiguousarray(wh.T)
    i, f, g = gates[:, :H], gates[:, H : 2 * H], gates[:, 2 * H : 3 * H]
    o = gates[:, 3 * H :]
    dtanhc = 1.0 - tanhc * tanhc
    # dZ starts as the first factors [i, f, 1 - g**2, o]; row t is
    # multiplied by its step's gradients in the loop
    dZ = gates.copy()
    dZ[:, 2 * H : 3 * H] = 1.0 - g * g
    second = 1.0 - gates
    second[:, 2 * H : 3 * H] = 1.0
    by_dc = np.stack([g, cprev, i], axis=1)
    # one step's [di, df, dg, do]: dc * [g, cprev, i], then dh * tanh(c)
    step = np.empty(4 * H, dtype=np.float64)
    step_by_dc = step[: 3 * H].reshape(3, H)
    step_o = step[3 * H :]
    dh_carry = np.zeros(H, dtype=np.float64)
    dc_carry = np.zeros(H, dtype=np.float64)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t] + dh_carry
        dc = np.multiply(dh, o[t])
        dc *= dtanhc[t]
        dc += dc_carry
        np.multiply(dc, by_dc[t], out=step_by_dc)
        np.multiply(dh, tanhc[t], out=step_o)
        dz = dZ[t]
        dz *= step
        dz *= second[t]
        if resets[t] != 0:
            dh_carry = np.zeros(H, dtype=np.float64)
            dc_carry = np.zeros(H, dtype=np.float64)
        elif t > 0:
            dh_carry = np.dot(dz, whT)
            dc_carry = dc * f[t]
    dwx = block_sum_tn(x, dZ)
    dwh = block_sum_tn(hprev, dZ)
    return dwx, dwh, dZ.sum(axis=0)


# ---------------------------------------------------------------------------
# K-Means inner loops. The squared distance is kept direct, not expanded
# into |p|^2 - 2 p.c + |c|^2, so exact ties break toward the lowest index.
# ---------------------------------------------------------------------------

# Points per block of `kmeans_assign`: its (rows, k, d) temporaries stay
# a fixed size however many points there are.
ASSIGN_BLOCK_ROWS = 256


def kmeans_assign(points, centroids):
    """(labels, inertia): each point's nearest centroid, and the sum of
    the nearest squared distances. Each block of ``ASSIGN_BLOCK_ROWS``
    points gets its own distance table; a row's distances are the same
    reduction whatever block holds it, and the inertia is one ``np.sum``
    over all rows, so neither depends on the block size."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.float64)
    for start in range(0, n, ASSIGN_BLOCK_ROWS):
        block = slice(start, start + ASSIGN_BLOCK_ROWS)
        diff = points[block, None, :] - centroids[None, :, :]
        diff *= diff
        dists = np.sum(diff, axis=2)
        np.argmin(dists, axis=1, out=labels[block])
        nearest[block] = dists[np.arange(dists.shape[0]), labels[block]]
    return labels, float(np.sum(nearest))


def kmeans_update(points, labels, k):
    """Member means per cluster (NaN rows for empty clusters) and counts."""
    d = points.shape[1]
    sums = np.zeros((k, d), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(sums, labels, points)
    np.add.at(counts, labels, 1)
    centroids = np.empty((k, d), dtype=np.float64)
    for c in range(k):
        if counts[c] > 0:
            centroids[c] = sums[c] / counts[c]
        else:
            centroids[c] = np.nan
    return centroids, counts
