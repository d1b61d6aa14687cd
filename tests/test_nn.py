"""Layer-level checks: hand cases, finite-difference oracles, Adam, softmax."""

import math

import numpy as np
import pytest

from fxppo import kernels, nn
from fxppo.agent import PolicyNetwork

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
@pytest.mark.parametrize("rows", [False, True])
def test_dense_gradcheck(activation, rows):
    rng = np.random.default_rng(SEED)
    for trial in range(25):
        layer = nn.DenseLayer(4, 3, activation, rng=rng)
        layer.b[:] = rng.normal(0, 0.3, 3)
        x = rng.normal(0, 1.0, (3, 4))
        proj = rng.normal(0, 1.0, (3, 3))  # random scalarizer

        def loss():
            return float(np.sum(layer.forward(x, rows=rows) * proj))

        loss()
        layer.dw[:] = 0
        layer.db[:] = 0
        dx = layer.backward(proj)
        for analytic, arr in ((layer.dw, layer.w), (layer.db, layer.b), (dx, x)):
            numeric = finite_diff_grad(loss, arr)
            assert max_rel_err(analytic, numeric) <= 1e-4


def test_dense_rows_matches_gemm():
    rng = np.random.default_rng(0)
    layer = nn.DenseLayer(6, 4, "relu", rng=rng)
    x = rng.normal(size=(7, 6))
    y_rows = layer.forward(x, rows=True).copy()
    y_gemm = layer.forward(x, rows=False)
    assert np.allclose(y_rows, y_gemm, atol=1e-12)


def test_dense_rows_batch_invariance():
    # row results must not depend on how many rows share the call
    rng = np.random.default_rng(3)
    layer = nn.DenseLayer(5, 3, "relu", rng=rng)
    x = rng.normal(size=(9, 5))
    full = layer.forward(x, rows=True).copy()
    single = np.vstack([layer.forward(x[t], rows=True) for t in range(9)])
    assert np.array_equal(full, single)


def plain_gemm_tn(x, d):
    # the single gemm the dense backward made before block sums
    return np.dot(np.ascontiguousarray(x.T), d)


@pytest.mark.parametrize("T", [1, 33, 64])
@pytest.mark.parametrize("shape", [(64, 3), (80, 32)])
def test_dense_gemm_dw_is_one_gemm_up_to_64_rows(T, shape):
    # one block: the autoencoder and PPO minibatches keep their bits
    rng = np.random.default_rng(T)
    x = rng.normal(size=(T, shape[0]))
    dpre = rng.normal(size=(T, shape[1]))
    _, dw, _ = kernels.dense_gemm_backward(x, rng.normal(size=shape), dpre)
    assert np.array_equal(dw, plain_gemm_tn(x, dpre))


def test_dense_gemm_dw_sums_64_row_blocks_left_to_right():
    rng = np.random.default_rng(150)
    x = rng.normal(size=(150, 64))
    dpre = rng.normal(size=(150, 12))
    _, dw, _ = kernels.dense_gemm_backward(x, rng.normal(size=(64, 12)), dpre)
    blocks = [plain_gemm_tn(x[s : s + 64], dpre[s : s + 64]) for s in (0, 64, 128)]
    assert np.array_equal(dw, (blocks[0] + blocks[1]) + blocks[2])


# ---------------------------------------------------------------------------
# LSTM layer
# ---------------------------------------------------------------------------


def test_lstm_zero_params_stay_zero():
    layer = nn.LSTMLayer(3, 4)
    x = np.random.default_rng(0).normal(size=(5, 3))
    hs, hT, cT = layer.forward(x)
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
    hs, hT, cT = layer.forward(np.array([[x]]))
    assert hs[0, 0] == pytest.approx(h1, abs=1e-15)
    assert cT[0] == pytest.approx(c1, abs=1e-15)


def test_lstm_two_steps_compose():
    rng = np.random.default_rng(7)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    x = rng.normal(size=(2, 2))
    hs, hT, cT = layer.forward(x)
    h1, c1 = layer.forward(x[:1])[1:]
    hs2, hT2, cT2 = layer.forward(x[1:], h0=h1, c0=c1)
    assert np.array_equal(hT, hT2)
    assert np.array_equal(cT, cT2)
    assert np.array_equal(hs[1], hs2[0])


def test_lstm_reset_equals_fresh_state():
    rng = np.random.default_rng(11)
    layer = nn.LSTMLayer(2, 3, rng=rng)
    x = rng.normal(size=(6, 2))
    resets = np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8)
    hs, _, _ = layer.forward(x, resets=resets)
    hs_a, hTa, cTa = layer.forward(x[:3])
    hs_b, _, _ = layer.forward(x[3:])
    assert np.array_equal(hs[:3], hs_a)
    assert np.array_equal(hs[3:], hs_b)


def test_lstm_gradcheck():
    rng = np.random.default_rng(SEED + 1)
    for trial in range(20):
        layer = nn.LSTMLayer(2, 2, rng=rng)
        layer.b[:] = rng.normal(0, 0.2, 8)
        x = rng.normal(0, 1.0, (3, 2))
        resets = np.array([1, 0, 0], dtype=np.uint8) if trial % 2 else np.zeros(3, dtype=np.uint8)
        proj = rng.normal(0, 1.0, (3, 2))

        def loss():
            hs, _, _ = layer.forward(x, resets=resets)
            return float(np.sum(hs * proj))

        loss()
        nn.zero_grads([layer])
        dx, _, _ = layer.backward(proj)
        for analytic, arr in (
            (layer.dwx, layer.wx),
            (layer.dwh, layer.wh),
            (layer.db, layer.b),
            (dx, x),
        ):
            numeric = finite_diff_grad(loss, arr)
            assert max_rel_err(analytic, numeric) <= 1e-4


def test_lstm_initial_state_gradcheck():
    rng = np.random.default_rng(99)
    layer = nn.LSTMLayer(2, 2, rng=rng)
    x = rng.normal(size=(4, 2))
    h0 = rng.normal(size=2)
    c0 = rng.normal(size=2)
    proj = rng.normal(size=(4, 2))

    def loss():
        hs, _, _ = layer.forward(x, h0=h0, c0=c0)
        return float(np.sum(hs * proj))

    loss()
    nn.zero_grads([layer])
    _, dh0, dc0 = layer.backward(proj)
    assert max_rel_err(dh0, finite_diff_grad(loss, h0)) <= 1e-4
    assert max_rel_err(dc0, finite_diff_grad(loss, c0)) <= 1e-4


def lstm_backward_rowwise(x, resets, gates, cs, tanhc, hprev, cprev, wx, wh, dh_out, dh_final, dc_final):
    """Backprop through time with one outer product per step: the oracle
    for the gemm form in `kernels.lstm_seq_backward`."""
    T = x.shape[0]
    H = cs.shape[1]
    n_in = x.shape[1]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * H)
    dx = np.empty((T, n_in))
    wxT = np.ascontiguousarray(wx.T)
    whT = np.ascontiguousarray(wh.T)
    dh_carry = dh_final.copy()
    dc_carry = dc_final.copy()
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
        dx[t, :] = np.dot(dz, wxT)
        if resets[t] != 0:
            dh_carry = np.zeros(H)
            dc_carry = np.zeros(H)
        else:
            dh_carry = np.dot(dz, whT)
            dc_carry = dc * f
    return dx, dwx, dwh, db, dh_carry, dc_carry


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
    hs, cs, tanhc, gates, hprev, cprev = forward[:6]
    args = (x, resets, gates, cs, tanhc, hprev, cprev, wx, wh,
            rng.normal(size=(T, H)), rng.normal(size=H), rng.normal(size=H))
    dx, dwx, dwh, db, dh0, dc0 = kernels.lstm_seq_backward(*args)
    ref = lstm_backward_rowwise(*args)
    # the recurrence keeps its operation order
    assert np.array_equal(dh0, ref[4])
    assert np.array_equal(dc0, ref[5])
    # the sums over steps change order only
    for got, want in zip((dx, dwx, dwh, db), ref[:4]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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
    opt = nn.Adam([p], lr=0.1)
    opt.step([np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_size():
    # bias-corrected first step moves by ~lr against the gradient sign
    p = np.array([1.0])
    opt = nn.Adam([p], lr=0.05)
    opt.step([np.array([1.0])])
    assert p[0] == pytest.approx(1.0 - 0.05, abs=1e-8)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(77)
        p = rng.normal(size=8)
        opt = nn.Adam([p], lr=0.01)
        for _ in range(25):
            opt.step([rng.normal(size=8)])
        return p

    assert np.array_equal(run(), run())


def test_adam_in_place_matches_textbook_formula_bit_for_bit():
    lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(60)
    params = nn.collect_params(PolicyNetwork(rng=rng).layers)
    ref = [(p.copy(), np.zeros_like(p), np.zeros_like(p)) for p in params]
    opt = nn.Adam(params, lr, b1, b2, eps)
    for t in range(1, 61):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape) for p in params]
        opt.step(grads)
        for k, ((p, m, v), g) in enumerate(zip(ref, grads)):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            ref[k] = (p, m, v)
    assert len(params) == 15
    for k, (p, m, v) in enumerate(ref):
        assert np.array_equal(params[k], p)
        assert np.array_equal(opt.m[k], m)
        assert np.array_equal(opt.v[k], v)


def test_clip_grad_norm():
    g = [np.array([3.0, 0.0]), np.array([[4.0]])]
    norm = nn.clip_grad_norm(g, 0.5)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(sum(float(np.sum(a * a)) for a in g))
    assert total == pytest.approx(0.5, rel=1e-9)
    g2 = [np.array([0.1])]
    nn.clip_grad_norm(g2, 0.5)  # under the cap: untouched
    assert g2[0][0] == 0.1


def test_init_determinism():
    a = nn.DenseLayer(8, 8, rng=np.random.default_rng(42))
    b = nn.DenseLayer(8, 8, rng=np.random.default_rng(42))
    assert np.array_equal(a.w, b.w)
    bound = 1 / math.sqrt(8)
    assert np.all(np.abs(a.w) <= bound)
