"""Numeric hot kernels: dense/LSTM passes and the K-Means inner loops.

Plain numpy float64. The dense kernels compute only the affine map
``x @ w + b`` and its gradients; :class:`fxppo.nn.DenseLayer` applies the
activation.

Row independence is a property of the forward kernels only. The
``*_rows_*`` forward and the LSTM forward process sequences row by row
with vector-matrix products, so a length-1 call and a length-T call give
bitwise-identical values for the same row: rollouts step one observation
at a time, the backtest passes a whole episode and updates replay 32-row
slices, and all three must agree. ``dense_gemm_forward`` does one matmul
for non-recurrent nets.

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


def dense_rows_forward(x, w, b):
    # x: (T, in), w: (in, out), b: (out,) -> (T, out); row-wise matvec
    T = x.shape[0]
    pre = np.empty((T, w.shape[1]), dtype=np.float64)
    for t in range(T):
        pre[t, :] = np.dot(x[t], w) + b
    return pre


# No caller since the backward passes became gemms; it goes with the next
# change to perfbench, whose traced metrics still name it.
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
    return np.dot(x, w) + b


def dense_gemm_backward(x, w, dpre):
    """(dx, dw, db) of the affine map given the gradient on its output."""
    dx = np.dot(dpre, np.ascontiguousarray(w.T))
    dw = block_sum_tn(x, dpre)
    db = np.sum(dpre, axis=0)
    return dx, dw, db


def lstm_seq_forward(x, resets, h0, c0, wx, wh, b):
    """Run an LSTM over a (T, in) sequence.

    resets[t] != 0 zeroes the carried state before consuming step t, which
    is how episode boundaries are replayed. Gate order in the fused weight
    matrices is input, forget, candidate, output.

    Returns (hs, cs, tanhc, gates, hprev, cprev, hT, cT); hprev/cprev hold
    the state *before* each step so any sub-segment can be replayed later.
    """
    T = x.shape[0]
    H = h0.shape[0]
    hs = np.empty((T, H), dtype=np.float64)
    cs = np.empty((T, H), dtype=np.float64)
    tanhc = np.empty((T, H), dtype=np.float64)
    gates = np.empty((T, 4 * H), dtype=np.float64)
    hprev = np.empty((T, H), dtype=np.float64)
    cprev = np.empty((T, H), dtype=np.float64)
    h = h0.copy()
    c = c0.copy()
    for t in range(T):
        if resets[t] != 0:
            h = np.zeros(H, dtype=np.float64)
            c = np.zeros(H, dtype=np.float64)
        hprev[t, :] = h
        cprev[t, :] = c
        z = np.dot(x[t], wx) + np.dot(h, wh) + b
        i = 1.0 / (1.0 + np.exp(-z[:H]))
        f = 1.0 / (1.0 + np.exp(-z[H : 2 * H]))
        g = np.tanh(z[2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[3 * H :]))
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, :H] = i
        gates[t, H : 2 * H] = f
        gates[t, 2 * H : 3 * H] = g
        gates[t, 3 * H :] = o
        cs[t, :] = c
        tanhc[t, :] = tc
        hs[t, :] = h
    return hs, cs, tanhc, gates, hprev, cprev, h, c


def lstm_seq_backward(x, resets, gates, cs, tanhc, hprev, cprev, wx, wh, dh_out, dh_final, dc_final):
    """Backprop through time for `lstm_seq_forward`.

    dh_out is the per-step upstream gradient on hs; dh_final/dc_final seed
    the carried state at the sequence end. Gradient flow stops at reset
    steps (the pre-reset state never influenced anything after the reset).
    The recurrence runs row by row and stores each step's gate gradient;
    dx and the parameter gradients are then gemms over all steps.
    """
    T = x.shape[0]
    H = cs.shape[1]
    whT = np.ascontiguousarray(wh.T)
    dh_carry = dh_final.copy()
    dc_carry = dc_final.copy()
    dZ = np.empty((T, 4 * H), dtype=np.float64)
    for t in range(T - 1, -1, -1):
        i = gates[t, :H]
        f = gates[t, H : 2 * H]
        g = gates[t, 2 * H : 3 * H]
        o = gates[t, 3 * H :]
        tc = tanhc[t]
        dh = dh_out[t] + dh_carry
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        do = dh * tc
        di = dc * g
        df = dc * cprev[t]
        dg = dc * i
        dz = dZ[t]
        dz[:H] = di * i * (1.0 - i)
        dz[H : 2 * H] = df * f * (1.0 - f)
        dz[2 * H : 3 * H] = dg * (1.0 - g * g)
        dz[3 * H :] = do * o * (1.0 - o)
        if resets[t] != 0:
            dh_carry = np.zeros(H, dtype=np.float64)
            dc_carry = np.zeros(H, dtype=np.float64)
        else:
            dh_carry = np.dot(dz, whT)
            dc_carry = dc * f
    dx = np.dot(dZ, np.ascontiguousarray(wx.T))
    dwx = block_sum_tn(x, dZ)
    dwh = block_sum_tn(hprev, dZ)
    return dx, dwx, dwh, dZ.sum(axis=0), dh_carry, dc_carry


# ---------------------------------------------------------------------------
# K-Means inner loops. The squared distance is kept direct, not expanded
# into |p|^2 - 2 p.c + |c|^2, so exact ties break toward the lowest index.
# ---------------------------------------------------------------------------


def kmeans_assign(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    dists = np.sum(diff * diff, axis=2)
    labels = np.argmin(dists, axis=1).astype(np.int64)
    inertia = float(np.sum(dists[np.arange(points.shape[0]), labels]))
    return labels, inertia


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
