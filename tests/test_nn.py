"""Layer-level checks: hand cases, finite-difference oracles, Adam, softmax."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TextbookAdam
from fxppo import agent, kernels, labeler, nn
from fxppo.agent import PolicyNetwork
from fxppo.labeler import Autoencoder, AutoencoderConfig

SEED = 1234


def finite_diff_grad(fn, arr, h=1e-5):
    """Central-difference gradient of scalar fn w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_err(analytic, numeric):
    num = np.abs(analytic - numeric)
    den = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


def test_dense_identity_weights_pass_through():
    layer = nn.DenseLayer(3, 3, "identity")
    layer.w[:] = np.eye(3)
    x = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(layer.forward(x), x)


def test_dense_zero_weights_give_bias():
    layer = nn.DenseLayer(4, 2, "identity")
    layer.b[:] = [0.3, -0.7]
    out = layer.forward(np.ones((5, 4)))
    assert np.allclose(out, [0.3, -0.7])


def test_dense_hand_matrix():
    # output = W x + b with W laid out (out, in): [[1,2],[3,4]] @ [1,1] = [3,7]
    layer = nn.DenseLayer(2, 2, "identity")
    layer.w[:] = np.array([[1.0, 2.0], [3.0, 4.0]]).T
    out = layer.forward(np.array([1.0, 1.0]))
    assert np.array_equal(out, [[3.0, 7.0]])


def test_dense_shape_mismatch():
    layer = nn.DenseLayer(3, 2)
    with pytest.raises(nn.ShapeMismatch):
        layer.forward(np.ones((1, 4)))


def test_dense_unknown_activation():
    with pytest.raises(ValueError):
        nn.DenseLayer(3, 2, "tanh")


@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_dense_gradcheck(activation):
    rng = np.random.default_rng(SEED)
    for trial in range(25):
        layer = nn.DenseLayer(4, 3, activation, rng=rng)
        layer.b[:] = rng.normal(0, 0.3, 3)
        x = rng.normal(0, 1.0, (3, 4))
        proj = rng.normal(0, 1.0, (3, 3))  # random scalarizer

        def loss():
            return float(np.sum(layer.forward(x) * proj))

        loss()
        layer.dw[:] = 0
        layer.db[:] = 0
        dx = layer.backward(proj)
        for analytic, arr in ((layer.dw, layer.w), (layer.db, layer.b), (dx, x)):
            numeric = finite_diff_grad(loss, arr)
            assert max_rel_err(analytic, numeric) <= 1e-4


def test_dense_in_place_matches_textbook_formula_bit_for_bit():
    # the bias and the ReLU applied in place, and the mask taken from the
    # output, against act(x @ w + b) and dy * (pre > 0) with temporaries
    rng = np.random.default_rng(8)
    layer = nn.DenseLayer(6, 5, "relu", rng=rng)
    layer.b[:] = rng.normal(size=5)
    x = rng.normal(size=(40, 6))
    x[:3] = 0.0  # pre-activations of exactly b
    layer.b[0] = 0.0  # and of exactly +-0
    pre = np.dot(x, layer.w) + layer.b
    y = layer.forward(x)
    assert np.array_equal(y, np.maximum(pre, 0.0))
    assert np.array_equal(np.signbit(y), np.signbit(np.maximum(pre, 0.0)))
    dy = rng.normal(size=(40, 5))
    dw, db = np.full((6, 5), np.nan), np.full(5, np.nan)
    kernels.dense_gemm_backward(x, dy * (pre > 0.0), dw, db)
    dx = layer.backward(dy)
    assert np.array_equal(layer.dw, dw)
    assert np.array_equal(layer.db, db)
    assert np.array_equal(dx, np.dot(dy * (pre > 0.0), layer.w.T))


def dense_rows_forward_rowwise(x, w, b):
    """One ``np.dot`` per row: the oracle for `kernels.dense_rows_forward`."""
    pre = np.empty((x.shape[0], w.shape[1]))
    for t in range(x.shape[0]):
        pre[t, :] = np.dot(x[t], w) + b
    return pre


def padded_row_gemm(v, w):
    """``v @ w`` for one row ``v``, as the first row of a two-row gemm whose
    second row is zero: the bits of that row in a gemm of any row count."""
    return np.dot(np.stack([v, np.zeros_like(v)]), w)[0]


def lstm_seq_forward_rowwise(x, resets, h0, c0, wx, wh, b):
    """The LSTM forward with every product inside the step loop, each the
    padded one-row gemm: the oracle for the whole-call input gemm, the
    lane gemms and the in-place step of `kernels.lstm_seq_forward`."""
    T = x.shape[0]
    H = h0.shape[0]
    hs, tanhc, hprev, cprev = (np.empty((T, H)) for _ in range(4))
    gates = np.empty((T, 4 * H))
    h = h0.copy()
    c = c0.copy()
    for t in range(T):
        if resets[t] != 0:
            h = np.zeros(H)
            c = np.zeros(H)
        hprev[t, :] = h
        cprev[t, :] = c
        z = padded_row_gemm(x[t], wx) + padded_row_gemm(h, wh) + b
        i = 1.0 / (1.0 + np.exp(-z[:H]))
        f = 1.0 / (1.0 + np.exp(-z[H : 2 * H]))
        g = np.tanh(z[2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[3 * H :]))
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t] = np.concatenate([i, f, g, o])
        tanhc[t, :] = tc
        hs[t, :] = h
    return hs, tanhc, gates, hprev, cprev, h, c


# the policy's shapes: LSTM input and hidden size, then every dense layer
N_IN, N_HIDDEN = 80, 128
POLICY_DENSE = [(128, 32), (32, 64), (64, 64), (64, 16)]


def column_strided(rng, T, n):
    """A (T, n) view of every other column of a wider array."""
    return rng.normal(size=(T, 2 * n))[:, ::2]


@pytest.mark.parametrize("T", [1, 7, 32, 600])
def test_dense_rows_forward_matches_rowwise_oracle(T):
    rng = np.random.default_rng(T)
    for n_in, n_out in POLICY_DENSE:
        w = nn.init_uniform(rng, (n_in, n_out), n_in)
        b = rng.normal(0, 0.1, n_out)
        for x in (rng.normal(size=(T, n_in)), column_strided(rng, T, n_in)):
            got = kernels.dense_rows_forward(x, w, b)
            assert np.array_equal(got, dense_rows_forward_rowwise(x, w, b))


@pytest.mark.parametrize("resets", ["row 0", "none", "random"])
@pytest.mark.parametrize("T", [1, 7, 32, 600])
def test_lstm_forward_matches_rowwise_oracle(T, resets):
    rng = np.random.default_rng(T)
    wx = nn.init_uniform(rng, (N_IN, 4 * N_HIDDEN), N_IN)
    wh = nn.init_uniform(rng, (N_HIDDEN, 4 * N_HIDDEN), N_HIDDEN)
    b = rng.normal(0, 0.1, 4 * N_HIDDEN)
    r = np.zeros(T, dtype=np.uint8)
    if resets == "row 0":
        r[0] = 1
    elif resets == "random":
        r[:] = rng.random(T) < 0.1
    h0, c0 = rng.normal(size=N_HIDDEN), rng.normal(size=N_HIDDEN)
    for x in (rng.normal(size=(T, N_IN)), column_strided(rng, T, N_IN)):
        got = kernels.lstm_seq_forward(x, r, h0, c0, wx, wh, b)
        want = lstm_seq_forward_rowwise(x, r, h0, c0, wx, wh, b)
        for name, g, w in zip(("hs", "tanhc", "gates", "hprev", "cprev", "hT", "cT"), got, want):
            assert np.array_equal(g, w), name
        hs, hT, cT = got[0], got[5], got[6]
        assert not np.shares_memory(hT, hs) and not np.shares_memory(cT, hs)
        assert not np.shares_memory(hT, h0) and not np.shares_memory(cT, c0)


@pytest.mark.parametrize("resets", ["step 0", "none", "random"])
@pytest.mark.parametrize("T", [1, 7, 43])
@pytest.mark.parametrize("N", [1, 2, 5, 14])
def test_lstm_lanes_match_rowwise_oracle_per_lane(N, T, resets):
    # lane n's rows are x[n::N]; run alone through the oracle, each lane
    # must get the same bits as in the N-lane call
    rng = np.random.default_rng(100 * N + T)
    wx = nn.init_uniform(rng, (N_IN, 4 * N_HIDDEN), N_IN)
    wh = nn.init_uniform(rng, (N_HIDDEN, 4 * N_HIDDEN), N_HIDDEN)
    b = rng.normal(0, 0.1, 4 * N_HIDDEN)
    r = np.zeros(T * N, dtype=np.uint8)
    if resets == "step 0":
        r[:N] = 1
    elif resets == "random":
        r[:] = rng.random(T * N) < 0.1
    h0, c0 = rng.normal(size=(N, N_HIDDEN)), rng.normal(size=(N, N_HIDDEN))
    names = ("hs", "tanhc", "gates", "hprev", "cprev", "hT", "cT")
    for x in (rng.normal(size=(T * N, N_IN)), column_strided(rng, T * N, N_IN)):
        got = kernels.lstm_seq_forward(x, r, h0, c0, wx, wh, b)
        assert got[5].shape == got[6].shape == (N, N_HIDDEN)
        for n in range(N):
            want = lstm_seq_forward_rowwise(x[n::N], r[n::N], h0[n], c0[n], wx, wh, b)
            lane = [a[n::N] for a in got[:5]] + [got[5][n], got[6][n]]
            for name, g, w in zip(names, lane, want):
                assert np.array_equal(g, w), (name, n)
        if N == 1:
            one_lane = kernels.lstm_seq_forward(x, r, h0[0], c0[0], wx, wh, b)
            assert one_lane[5].shape == one_lane[6].shape == (N_HIDDEN,)
            for name, g, w in zip(names, one_lane, got):
                assert np.array_equal(g, w.reshape(g.shape)), name


def gemm_products(net):
    """(name, weight) of every product the policy runs as a gemm: the
    LSTM's input and recurrent products, the three trunk layers and the
    fused heads."""
    return [("wx", net.lstm.wx), ("wh", net.lstm.wh),
            ("fc1", net.fc1.w), ("fc2", net.fc2.w), ("fc3", net.fc3.w),
            ("heads", net.heads.w)]


ROW_COUNTS = [2, 3, 13, 14, 32, 256, 600, 6000]
ROW_OFFSETS = [0, 1, 7, 33]


@pytest.mark.parametrize("sizes", [
    (80, 128, (32, 64, 64)),  # production
    (6, 5, (4, 4, 4)),  # the small nets of the exact agent and backtest tests
    (8, 5, (4, 4, 4)),
    (2, 3, (4, 4, 4)),
], ids=lambda s: f"{s[0]}-{s[1]}-{'-'.join(map(str, s[2]))}")
def test_policy_gemm_rows_do_not_depend_on_the_row_count(sizes):
    # the rollout's one-row calls, the backtest's lane gemms and the
    # replay's slices agree only if each row of an M-row gemm has the bits
    # of the padded one-row gemm; a BLAS that breaks this fails here first
    input_size, hidden_size, trunk = sizes
    rng = np.random.default_rng(input_size + hidden_size)
    net = PolicyNetwork(input_size, hidden_size, trunk, rng)
    n = ROW_COUNTS[-1] + ROW_OFFSETS[-1]
    for name, w in gemm_products(net):
        k = w.shape[0]
        # rows one float64 off the allocation's alignment, as arena views are
        pool = np.empty(n * k + 1)[1:].reshape(n, k)
        pool[...] = rng.normal(size=(n, k))
        pad = np.zeros((2, k))
        want = np.empty((n, w.shape[1]))
        for r in range(n):
            pad[0] = pool[r]
            want[r] = np.dot(pad, w)[0]
        for m in ROW_COUNTS:
            for off in ROW_OFFSETS:
                got = np.dot(pool[off : off + m], w)
                assert np.array_equal(got, want[off : off + m]), (name, m, off)


@pytest.mark.parametrize("T", [1, 9, 256])
@pytest.mark.parametrize("N", [1, 2, 14])
def test_lstm_cache_free_pass_matches_caching_pass(N, T):
    # act's pass makes each step's input product in the step, keeps one
    # step's gates and tanh(c) and no entry states; hs and the final state
    # must keep the bits of the pass that caches
    rng = np.random.default_rng(10 * N + T)
    H = 128
    wx = nn.init_uniform(rng, (80, 4 * H), 80)
    wh = nn.init_uniform(rng, (H, 4 * H), H)
    b = rng.normal(0, 0.1, 4 * H)
    r = (rng.random(T * N) < 0.1).astype(np.uint8)
    r[:N] = 1
    shape = (N, H) if N > 1 else (H,)
    h0, c0 = rng.normal(size=shape), rng.normal(size=shape)
    for x in (rng.normal(scale=2e-3, size=(T * N, 80)), column_strided(rng, T * N, 80)):
        want = kernels.lstm_seq_forward(x, r, h0, c0, wx, wh, b)
        got = kernels.lstm_seq_forward(x, r, h0, c0, wx, wh, b, keep=False)
        assert got[1:5] == (None, None, None, None)
        for name, k in (("hs", 0), ("hT", 5), ("cT", 6)):
            assert got[k].shape == want[k].shape and np.array_equal(got[k], want[k]), name
        assert not np.shares_memory(got[5], got[0])


def lstm_from_zero(layer, x, resets=None, keep=True):
    """`layer.forward` over x from zero state; no resets unless given."""
    if resets is None:
        resets = np.zeros(len(x), dtype=np.uint8)
    return layer.forward(x, *layer.initial_state(), resets, keep)


def test_lstm_layer_without_cache_has_no_backward():
    rng = np.random.default_rng(13)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    x = rng.normal(size=(4, 2))
    hs, hT, cT = lstm_from_zero(layer, x, keep=False)
    assert layer._cache is None
    want = lstm_from_zero(layer, x)
    for g, w in zip((hs, hT, cT), want):
        assert np.array_equal(g, w)
    lstm_from_zero(layer, x, keep=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((4, 3)))


def plain_gemm_tn(x, d):
    # the single gemm the dense backward made before block sums, on the
    # transposed view of x
    return np.dot(x.T, d)


def dense_dw(x, dpre):
    """The dw that `kernels.dense_gemm_backward` writes, into a NaN array."""
    dw = np.full((x.shape[1], dpre.shape[1]), np.nan)
    kernels.dense_gemm_backward(x, dpre, dw, np.full(dpre.shape[1], np.nan))
    return dw


@pytest.mark.parametrize("T", [1, 33, 64])
@pytest.mark.parametrize("shape", [(64, 3), (80, 32)])
def test_dense_gemm_dw_is_one_gemm_up_to_64_rows(T, shape):
    # one block: the autoencoder and PPO minibatches keep their bits
    rng = np.random.default_rng(T)
    x = rng.normal(size=(T, shape[0]))
    dpre = rng.normal(size=(T, shape[1]))
    assert np.array_equal(dense_dw(x, dpre), plain_gemm_tn(x, dpre))


def test_dense_gemm_dw_sums_64_row_blocks_left_to_right():
    rng = np.random.default_rng(150)
    x = rng.normal(size=(150, 64))
    dpre = rng.normal(size=(150, 12))
    blocks = [plain_gemm_tn(x[s : s + 64], dpre[s : s + 64]) for s in (0, 64, 128)]
    assert np.array_equal(dense_dw(x, dpre), (blocks[0] + blocks[1]) + blocks[2])


# ---------------------------------------------------------------------------
# LSTM layer
# ---------------------------------------------------------------------------


def test_lstm_zero_params_stay_zero():
    layer = nn.LSTMLayer(3, 4)
    x = np.random.default_rng(0).normal(size=(5, 3))
    hs, hT, cT = lstm_from_zero(layer, x)
    assert np.all(hs == 0) and np.all(hT == 0) and np.all(cT == 0)


def test_lstm_single_cell_hand_computed():
    # one unit, one step: evaluate the gate equations by hand
    layer = nn.LSTMLayer(1, 1)
    wxi, wxf, wxg, wxo = 0.5, 0.25, 1.0, -0.5
    bi, bf, bg, bo = 0.1, 0.2, -0.1, 0.3
    layer.wx[0, :] = [wxi, wxf, wxg, wxo]
    layer.wh[0, :] = [0.7, -0.3, 0.2, 0.9]  # h0 = 0, so these do not matter
    layer.b[:] = [bi, bf, bg, bo]
    x = 0.8
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = sig(wxi * x + bi)
    f = sig(wxf * x + bf)
    g = math.tanh(wxg * x + bg)
    o = sig(wxo * x + bo)
    c1 = i * g
    h1 = o * math.tanh(c1)
    hs, hT, cT = lstm_from_zero(layer, np.array([[x]]))
    assert hs[0, 0] == pytest.approx(h1, abs=1e-15)
    assert cT[0] == pytest.approx(c1, abs=1e-15)


def test_lstm_two_steps_compose():
    rng = np.random.default_rng(7)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    x = rng.normal(size=(2, 2))
    hs, hT, cT = lstm_from_zero(layer, x)
    h1, c1 = lstm_from_zero(layer, x[:1])[1:]
    hs2, hT2, cT2 = layer.forward(x[1:], h1, c1, np.zeros(1, dtype=np.uint8))
    assert np.array_equal(hT, hT2)
    assert np.array_equal(cT, cT2)
    assert np.array_equal(hs[1], hs2[0])


def test_lstm_reset_equals_fresh_state():
    rng = np.random.default_rng(11)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    x = rng.normal(size=(6, 2))
    resets = np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8)
    hs, _, _ = lstm_from_zero(layer, x, resets)
    hs_a, hTa, cTa = lstm_from_zero(layer, x[:3])
    hs_b, _, _ = lstm_from_zero(layer, x[3:])
    assert np.array_equal(hs[:3], hs_a)
    assert np.array_equal(hs[3:], hs_b)


def test_lstm_backward_is_one_lane():
    rng = np.random.default_rng(12)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    h0 = np.zeros((2, 3))
    with pytest.raises(nn.ShapeMismatch):
        layer.forward(rng.normal(size=(5, 2)), h0, h0, np.zeros(5))  # 5 rows over 2 lanes
    hs, hT, _ = layer.forward(rng.normal(size=(6, 2)), h0, h0, np.zeros(6))
    assert hs.shape == (6, 3) and hT.shape == (2, 3)
    with pytest.raises(nn.ShapeMismatch):
        layer.backward(np.ones_like(hs))


def test_lstm_gradcheck():
    rng = np.random.default_rng(SEED + 1)
    for trial in range(20):
        layer = nn.LSTMLayer(2, 2, rng=rng)
        layer.b[:] = rng.normal(0, 0.2, 8)
        x = rng.normal(0, 1.0, (3, 2))
        resets = np.array([1, 0, 0], dtype=np.uint8) if trial % 2 else np.zeros(3, dtype=np.uint8)
        proj = rng.normal(0, 1.0, (3, 2))

        def loss():
            hs, _, _ = lstm_from_zero(layer, x, resets)
            return float(np.sum(hs * proj))

        loss()
        layer.backward(proj)
        for analytic, arr in (
            (layer.dwx, layer.wx),
            (layer.dwh, layer.wh),
            (layer.db, layer.b),
        ):
            numeric = finite_diff_grad(loss, arr)
            assert max_rel_err(analytic, numeric) <= 1e-4


def lstm_backward_rowwise(x, resets, gates, tanhc, hprev, cprev, wh, dh_out):
    """Backprop through time with one outer product per step: the oracle
    for the gemm form in `kernels.lstm_seq_backward`."""
    T = x.shape[0]
    H = tanhc.shape[1]
    n_in = x.shape[1]
    dwx = np.zeros((n_in, 4 * H))
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * H)
    dh_carry = np.zeros(H)
    dc_carry = np.zeros(H)
    dz = np.empty(4 * H)
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
        dz[:H] = di * i * (1.0 - i)
        dz[H : 2 * H] = df * f * (1.0 - f)
        dz[2 * H : 3 * H] = dg * (1.0 - g * g)
        dz[3 * H :] = do * o * (1.0 - o)
        dwx += x[t].reshape(n_in, 1) * dz.reshape(1, 4 * H)
        dwh += hprev[t].reshape(H, 1) * dz.reshape(1, 4 * H)
        db += dz
        if resets[t] != 0:
            dh_carry = np.zeros(H)
            dc_carry = np.zeros(H)
        else:
            dh_carry = np.dot(wh, dz)
            dc_carry = dc * f
    return dwx, dwh, db


def lstm_backward(x, resets, gates, tanhc, hprev, cprev, wh, dh_out):
    """The (dwx, dwh, db) that `kernels.lstm_seq_backward` writes, into
    NaN arrays."""
    out = (np.full((x.shape[1], wh.shape[1]), np.nan), np.full(wh.shape, np.nan),
           np.full(wh.shape[1], np.nan))
    kernels.lstm_seq_backward(x, resets, gates, tanhc, hprev, cprev, wh, dh_out, *out)
    return out


@pytest.mark.parametrize("T", [1, 7, 32, 65, 130])
def test_lstm_backward_matches_rowwise_oracle(T):
    rng = np.random.default_rng(T)
    n_in, H = 10, 32
    wx = rng.normal(0, 0.3, (n_in, 4 * H))
    wh = rng.normal(0, 0.3, (H, 4 * H))
    x = rng.normal(size=(T, n_in))
    resets = np.zeros(T, dtype=np.uint8)
    resets[rng.integers(0, T, size=T // 20)] = 1
    forward = kernels.lstm_seq_forward(
        x, resets, rng.normal(size=H), rng.normal(size=H), wx, wh, rng.normal(0, 0.3, 4 * H)
    )
    hs, tanhc, gates, hprev, cprev = forward[:5]
    args = (x, resets, gates, tanhc, hprev, cprev, wh, rng.normal(size=(T, H)))
    # the sums over steps change order only
    for got, want in zip(lstm_backward(*args), lstm_backward_rowwise(*args)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def lstm_backward_unhoisted(x, resets, gates, tanhc, hprev, cprev, wh, dh_out):
    """`kernels.lstm_seq_backward` as it was before its carry-free factors
    were hoisted out of the step loop, cut to the parameter gradients: the
    bit-for-bit oracle for the hoisted form. Every carried gradient
    reaches the parameters through ``dZ``, so the recurrence's operation
    order is pinned through them."""
    T = x.shape[0]
    H = tanhc.shape[1]
    dh_carry = np.zeros(H, dtype=np.float64)
    dc_carry = np.zeros(H, dtype=np.float64)
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
            dh_carry = np.dot(wh, dz)
            dc_carry = dc * f
    dwx = np.empty((x.shape[1], 4 * H))
    dwh = np.empty_like(wh)
    kernels.block_sum_tn(x, dZ, dwx)
    kernels.block_sum_tn(hprev, dZ, dwh)
    return dwx, dwh, dZ.sum(axis=0)


@pytest.mark.parametrize("resets_kind", ["none", "first", "random"])
@pytest.mark.parametrize("T", [1, 7, 32, 600])
def test_lstm_backward_matches_unhoisted_oracle_bit_for_bit(T, resets_kind):
    rng = np.random.default_rng(1000 + T)
    n_in, H = 80, 128
    wx = nn.init_uniform(rng, (n_in, 4 * H), n_in)
    wh = nn.init_uniform(rng, (H, 4 * H), H)
    b = rng.normal(0, 0.3, 4 * H)
    x = rng.normal(size=(T, n_in))
    resets = np.zeros(T, dtype=np.uint8)
    if resets_kind == "first":
        resets[0] = 1
    elif resets_kind == "random":
        resets[rng.random(T) < 0.1] = 1
    hs, tanhc, gates, hprev, cprev, _, _ = kernels.lstm_seq_forward(
        x, resets, rng.normal(size=H), rng.normal(size=H), wx, wh, b
    )
    args = (x, resets, gates, tanhc, hprev, cprev, wh, rng.normal(size=(T, H)))
    inputs = [a.copy() for a in args]
    got = lstm_backward(*args)
    for before, after in zip(inputs, args):
        assert np.array_equal(before, after)
    want = lstm_backward_unhoisted(*args)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# softmax / losses
# ---------------------------------------------------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    probs = nn.softmax(rng.normal(0, 5, (40, 12)))
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_equal_logits_uniform():
    probs = nn.softmax(np.zeros((1, 3)))
    assert np.allclose(probs, 1 / 3, atol=1e-12)


def test_mse_loss_and_gradcheck():
    rng = np.random.default_rng(5)
    est = rng.normal(size=20)
    tgt = rng.normal(size=20)
    loss, dest = nn.mse_loss(est, tgt)
    assert loss == pytest.approx(float(np.mean((est - tgt) ** 2)), abs=1e-15)
    numeric = finite_diff_grad(lambda: nn.mse_loss(est, tgt)[0], est)
    assert max_rel_err(dest, numeric) <= 1e-4
    assert nn.mse_loss(tgt, tgt)[0] == 0.0
    assert nn.mse_loss(np.zeros(2), np.ones(2))[0] == 1.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    p = np.array([1.0, -2.0])
    opt = nn.Adam(p, lr=0.1)
    opt.step(np.zeros(2))
    assert np.array_equal(p, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_size():
    # bias-corrected first step moves by ~lr against the gradient sign
    p = np.array([1.0])
    opt = nn.Adam(p, lr=0.05)
    opt.step(np.array([1.0]))
    assert p[0] == pytest.approx(1.0 - 0.05, abs=1e-8)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(77)
        p = rng.normal(size=8)
        opt = nn.Adam(p, lr=0.01)
        for _ in range(25):
            opt.step(rng.normal(size=8))
        return p

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("t", [1, 2, 10, 1000, 10_000])
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0])
def test_adam_efficient_form_matches_the_bias_corrected_formula(t, scale):
    """From the same state, one step of the efficient form moves every
    parameter by ``lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)``
    up to rounding, and leaves the moments of that formula bit for bit.
    Small gradients are where the scaled epsilon matters: at t = 1, plain
    eps against sqrt(v) would change the step by up to 32x."""
    lr = 3e-4
    b1, b2, eps = nn.Adam.BETA1, nn.Adam.BETA2, nn.Adam.EPS
    rng = np.random.default_rng(t)
    g = rng.normal(scale=scale, size=500)
    # moments that t - 1 earlier steps of this scale could have left
    m = rng.normal(scale=scale, size=500) * (1.0 - b1 ** (t - 1))
    v = rng.normal(scale=scale, size=500) ** 2 * (1.0 - b2 ** (t - 1))
    p = np.zeros(500)  # so that p after the step is minus the step
    opt = nn.Adam(p, lr)
    opt.m[:], opt.v[:], opt.step_count = m, v, t - 1
    opt.step(g)
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    want = -(lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps))
    assert opt.step_count == t
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    np.testing.assert_allclose(p, want, rtol=1e-13, atol=0.0)


def test_adam_in_place_matches_textbook_formula_bit_for_bit():
    """One flat Adam over a net's arena ends on the bits of the efficient
    form's formula applied to each parameter array, with gradient scales that
    differ by array."""
    lr = 3e-4
    rng = np.random.default_rng(60)
    net = PolicyNetwork(rng=rng)
    params = [p for layer in net.layers for p in layer.params()]
    ref = TextbookAdam([p.copy() for p in params], lr)
    opt = nn.Adam(net.params, lr)
    for _ in range(60):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape) for p in params]
        opt.step(np.concatenate([g.ravel() for g in grads]))
        ref.step(grads)
    assert len(params) == 11 and opt.step_count == 60
    moments = zip(nn.split_flat(opt.m, params), nn.split_flat(opt.v, params))
    for p, (m, v), want_p, want_m, want_v in zip(params, moments, ref.params, ref.m, ref.v):
        assert np.array_equal(p, want_p)
        assert np.array_equal(m, want_m)
        assert np.array_equal(v, want_v)


def policy_net():
    return PolicyNetwork(rng=np.random.default_rng(3))


def autoencoder():
    return Autoencoder(AutoencoderConfig(), np.random.default_rng(3))


def standalone_layers(make):
    """The net's layers built on their own from the same seed, each owning
    its arrays: the initial values before they move into the arena."""
    rng = np.random.default_rng(3)
    if make is policy_net:
        sizes = [(128, 32, "relu"), (32, 64, "relu"), (64, 64, "relu"), (64, 16, "identity")]
        return [nn.LSTMLayer(80, 128, rng)] + [nn.DenseLayer(*s, rng) for s in sizes]
    sizes = [80, 128, 64, 32, 12]
    pairs = list(zip(sizes, sizes[1:])) + list(zip(sizes[::-1], sizes[-2::-1]))
    return [nn.DenseLayer(n_in, n_out, "identity" if k in (3, 7) else "relu", rng)
            for k, (n_in, n_out) in enumerate(pairs)]


@pytest.mark.parametrize("make", [policy_net, autoencoder])
def test_layers_hold_views_into_their_nets_arena(make):
    net = make()
    params = [p for layer in net.layers for p in layer.params()]
    grads = [getattr(layer, g) for layer in net.layers for g in layer.GRADS]
    blocks = list(net.param_blocks().values())
    assert len(blocks) == len(params) == len(grads)
    offset = 0
    for block, p, g in zip(blocks, params, grads):
        assert block is p
        assert g.shape == p.shape
        for view, flat in ((p, net.params), (g, net.grads)):
            assert np.shares_memory(view, flat)
            assert view.ctypes.data == flat.ctypes.data + 8 * offset
        offset += p.size
    assert net.params.shape == net.grads.shape == (offset,)
    assert net.params.dtype == net.grads.dtype == np.float64
    # the layers drew their initial values in the usual order
    own = [p for layer in standalone_layers(make) for p in layer.params()]
    assert np.array_equal(net.params, np.concatenate([p.ravel() for p in own]))
    assert not net.grads.any()


def drawn_one_layer_at_a_time(table, rng):
    """The initial values of the layer table ``table`` as each layer drew
    them into arrays of its own, concatenated in table order: how a net was
    built before its layers drew their values in its arena. The oracle
    for `nn.Net`."""
    values = []
    for _, cls, args in table:
        for shape in cls.shapes(*args).values():
            drawn = rng is not None and len(shape) == 2
            values.append(nn.init_uniform(rng, shape, shape[0]) if drawn else np.zeros(shape))
    return np.concatenate([v.ravel() for v in values])


@pytest.mark.parametrize("seed", [None, 0, 3])
@pytest.mark.parametrize("table", [
    agent._layer_table(80, 128, (32, 64, 64)),
    labeler._layer_table(80, AutoencoderConfig()),
], ids=["policy", "autoencoder"])
def test_net_draws_the_values_of_per_layer_construction(table, seed):
    rng, oracle_rng = (None, None) if seed is None else (
        np.random.default_rng(seed), np.random.default_rng(seed))
    net = nn.Net(table, rng)
    assert np.array_equal(net.params, drawn_one_layer_at_a_time(table, oracle_rng))
    assert net.params.shape == net.grads.shape and not net.grads.any()
    if seed is not None:
        # and drew no more and no fewer values
        assert rng.random() == oracle_rng.random()


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_net_of_any_table_draws_the_per_layer_values(sizes, seed):
    table = [("lstm", nn.LSTMLayer, (sizes[0], sizes[-1]))]
    table += [(f"fc{k}", nn.DenseLayer, (n_in, n_out, "relu"))
              for k, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))]
    net = nn.Net(table, np.random.default_rng(seed))
    want = drawn_one_layer_at_a_time(table, np.random.default_rng(seed))
    assert np.array_equal(net.params, want)


@pytest.mark.parametrize("make", [policy_net, autoencoder])
def test_load_param_blocks_writes_through_to_the_arena(make):
    net = make()
    rng = np.random.default_rng(4)
    blocks = {name: rng.normal(size=a.shape) for name, a in net.param_blocks().items()}
    flat = net.params
    net.load_param_blocks(blocks)
    assert net.params is flat
    assert np.array_equal(flat, np.concatenate([b.ravel() for b in blocks.values()]))


def built_shapes(net):
    return [(name, a.shape) for name, a in net.param_blocks().items()]


layer_size = st.integers(1, 9)


@given(layer_size, layer_size, st.tuples(layer_size, layer_size, layer_size))
@settings(max_examples=50, deadline=None)
def test_policy_block_shapes_match_a_built_net(input_size, hidden_size, trunk):
    table = agent._layer_table(input_size, hidden_size, trunk)
    net = PolicyNetwork(input_size, hidden_size, trunk)
    assert list(nn.block_shapes(table).items()) == built_shapes(net)


@given(layer_size, st.lists(layer_size, max_size=4), layer_size)
@settings(max_examples=50, deadline=None)
def test_autoencoder_block_shapes_match_a_built_net(input_size, hidden_sizes, latent_size):
    config = AutoencoderConfig(hidden_sizes=hidden_sizes, latent_size=latent_size)
    table = labeler._layer_table(input_size, config)
    model = Autoencoder(config, input_size=input_size)
    assert list(nn.block_shapes(table).items()) == built_shapes(model)
    assert model.encoder + model.decoder == model.layers
    assert model.encoder[-1].out_size == latent_size


def clip_grad_norm_per_array(grads, max_norm):
    """The clip over each parameter's own gradient array, as it was before
    the gradients shared one arena: the oracle for `nn.clip_grad_norm`."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads:
            g *= scale
    return norm


def test_clip_grad_norm():
    g = np.array([3.0, 0.0, 4.0])
    assert nn.clip_grad_norm(g, 0.5) == pytest.approx(5.0)
    assert math.sqrt(float(np.sum(g * g))) == pytest.approx(0.5, rel=1e-9)
    # a policy's whole arena, against the per-array clip of its blocks
    net = policy_net()
    params = list(net.param_blocks().values())
    rng = np.random.default_rng(6)
    for max_norm, scale in ((0.5, 1e-2), (0.5, 1e-4)):
        net.grads[:] = rng.normal(scale=scale, size=net.grads.shape)
        before = net.grads.copy()
        per_array = [a.copy() for a in nn.split_flat(before, params)]
        want = clip_grad_norm_per_array(per_array, max_norm)
        norm = nn.clip_grad_norm(net.grads, max_norm)
        assert norm == pytest.approx(want, rel=1e-13, abs=0.0)
        if want <= max_norm:  # under the cap: every bit kept
            assert np.array_equal(net.grads, before)
        else:
            assert math.sqrt(float(np.sum(net.grads * net.grads))) <= max_norm
            np.testing.assert_allclose(net.grads, np.concatenate(
                [a.ravel() for a in per_array]), rtol=1e-13, atol=0.0)


# Clips seeded policy-sized arenas and prints, per seed, the norm and the
# sha256 of the clipped arena. `np.dot(g, g)` in place of the clip's sum
# gives other bits under one and two OpenBLAS threads at seeds 0, 4 and 5.
CLIP_SCRIPT = """
import hashlib, sys
import numpy as np
from fxppo import nn
for seed in range(6):
    grads = np.random.default_rng(seed).normal(scale=1e-2, size=int(sys.argv[1]))
    norm = nn.clip_grad_norm(grads, 0.5)
    print(seed, float(norm).hex(), hashlib.sha256(grads.tobytes()).hexdigest())
"""


def test_clip_grad_norm_independent_of_blas_threads():
    size = str(PolicyNetwork().grads.size)
    src = os.path.dirname(os.path.dirname(nn.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        runs.append(subprocess.run([sys.executable, "-c", CLIP_SCRIPT, size], env=env,
                                   check=True, capture_output=True, text=True, timeout=120).stdout)
    assert size == "118448" and len(runs[0].split()) == 18
    assert runs[0] == runs[1]


def test_init_determinism():
    a = nn.DenseLayer(8, 8, rng=np.random.default_rng(42))
    b = nn.DenseLayer(8, 8, rng=np.random.default_rng(42))
    assert np.array_equal(a.w, b.w)
    bound = 1 / math.sqrt(8)
    assert np.all(np.abs(a.w) <= bound)
