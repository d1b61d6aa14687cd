"""Autoencoder training, k-means fitting, and label persistence."""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import TextbookAdam, reachable_arrays
from fxppo import kernels
from fxppo.checkpoint import CheckpointError, load_container, save_container
from fxppo.labeler import (
    Autoencoder,
    AutoencoderConfig,
    KMeansModel,
    LabelerError,
    _kmeans_pp_init,
    _repair_empty,
    kmeans_assign,
    kmeans_fit,
    label_dataset,
    load_autoencoder,
    load_kmeans,
    save_autoencoder,
    save_kmeans,
    silhouette_score,
    train_autoencoder,
)
from fxppo.nn import mse_loss, split_flat


def lloyd_reference(points, init_centroids, max_iters=300, tol=1e-8):
    """Plain-python Lloyd oracle sharing the library's stopping and
    repair protocol but none of its code paths."""
    n, d = points.shape
    k = init_centroids.shape[0]
    cents = [list(c) for c in init_centroids]
    prev_labels = None
    labels = [0] * n
    for _ in range(max_iters):
        for i in range(n):
            best, best_d = 0, float("inf")
            for j in range(k):
                dist = sum((points[i][m] - cents[j][m]) ** 2 for m in range(d))
                if dist < best_d:
                    best, best_d = j, dist
            labels[i] = best
        if prev_labels is not None and labels == prev_labels:
            break
        prev_labels = list(labels)
        sums = [[0.0] * d for _ in range(k)]
        counts = [0] * k
        for i in range(n):
            counts[labels[i]] += 1
            for m in range(d):
                sums[labels[i]][m] += points[i][m]
        new_cents = []
        for j in range(k):
            if counts[j] > 0:
                new_cents.append([s / counts[j] for s in sums[j]])
            else:
                new_cents.append(None)
        dists = [
            sum((points[i][m] - new_cents[labels[i]][m]) ** 2 for m in range(d))
            for i in range(n)
        ]
        for j in range(k):
            if new_cents[j] is None:
                far = max(range(n), key=lambda i: (dists[i], -i))
                new_cents[j] = list(points[far])
                dists[far] = -1.0
        shift = max(
            abs(new_cents[j][m] - cents[j][m]) for j in range(k) for m in range(d)
        )
        cents = new_cents
        if shift < tol:
            for i in range(n):
                best, best_d = 0, float("inf")
                for j in range(k):
                    dist = sum(
                        (points[i][m] - cents[j][m]) ** 2 for m in range(d)
                    )
                    if dist < best_d:
                        best, best_d = j, dist
                labels[i] = best
            break
    return np.array(cents), np.array(labels)


def assign_broadcast(points, centroids):
    """`kernels.kmeans_assign` as one (n, k, d) broadcast over all points:
    the oracle for its row blocks."""
    diff = points[:, None, :] - centroids[None, :, :]
    dists = np.sum(diff * diff, axis=2)
    labels = np.argmin(dists, axis=1).astype(np.int64)
    return labels, float(np.sum(dists[np.arange(points.shape[0]), labels]))


def silhouette_matrix(points, labels):
    """`silhouette_score` over the whole (n, n) distance matrix, made at
    once from an (n, n, d) broadcast: the oracle for its rows made one at
    a time."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    uniq = np.unique(labels)
    scores = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        own = labels == labels[i]
        own_count = own.sum() - 1
        if own_count == 0:
            continue
        a = dist[i][own].sum() / own_count
        b = min(dist[i][labels == lab].mean() for lab in uniq if lab != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def train_autoencoder_per_array(windows, config, seed):
    """`train_autoencoder` with the textbook Adam over every layer's own
    arrays and the best parameters kept as one copy per array: the
    reference for the flat-arena loop."""
    rng = np.random.default_rng(seed)
    model = Autoencoder(config, rng, windows.shape[1])
    params = [p for layer in model.layers for p in layer.params()]
    grads = split_flat(model.grads, params)
    opt = TextbookAdam(params, config.learning_rate)
    n = windows.shape[0]
    n_val = max(1, int(round(config.holdout_fraction * n)))
    perm = rng.permutation(n)
    val_x = windows[perm[:n_val]]
    train_idx = perm[n_val:]
    best_val = np.inf
    best_params = [p.copy() for p in params]
    stale = 0
    history = []
    for _ in range(config.max_epochs):
        order = rng.permutation(train_idx.shape[0])
        epoch_loss = 0.0
        for start in range(0, order.shape[0], config.batch_size):
            batch = windows[train_idx[order[start : start + config.batch_size]]]
            loss, drecon = mse_loss(model.forward(batch), batch)
            for g in grads:
                g[:] = 0.0
            model.backward(drecon)
            opt.step(grads)
            epoch_loss += loss * batch.shape[0]
        val_mse = model.reconstruction_mse(val_x)
        history.append((epoch_loss / train_idx.shape[0], val_mse))
        if val_mse < best_val:
            best_val = val_mse
            for dst, src in zip(best_params, params):
                dst[:] = src
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    for dst, src in zip(params, best_params):
        dst[:] = src
    return model, history


class TestAutoencoder:
    def test_architecture_shapes(self):
        model = Autoencoder(AutoencoderConfig())
        enc_shapes = [(l.in_size, l.out_size) for l in model.encoder]
        dec_shapes = [(l.in_size, l.out_size) for l in model.decoder]
        assert enc_shapes == [(80, 128), (128, 64), (64, 32), (32, 12)]
        assert dec_shapes == [(12, 32), (32, 64), (64, 128), (128, 80)]

    def test_encode_output_is_latent_sized(self):
        rng = np.random.default_rng(0)
        model = Autoencoder(AutoencoderConfig(), rng)
        code = model.encode(rng.normal(size=80))
        assert code.shape == (1, 12)
        assert np.all(np.isfinite(code))

    def test_zero_weight_encoder_outputs_bias(self):
        model = Autoencoder(AutoencoderConfig())
        code = model.encode(np.random.default_rng(1).normal(size=80))
        assert np.array_equal(code, np.zeros((1, 12)))

    def test_encode_deterministic(self):
        rng = np.random.default_rng(2)
        model = Autoencoder(AutoencoderConfig(), rng)
        x = rng.normal(size=(5, 80))
        assert np.array_equal(model.encode(x), model.encode(x))

    def test_too_few_samples(self):
        with pytest.raises(LabelerError, match="^need at least 64 windows, .*; got 63$"):
            train_autoencoder(np.zeros((63, 80)), AutoencoderConfig(), seed=0)

    def test_holdout_leaves_no_training_window(self):
        cfg = AutoencoderConfig(holdout_fraction=0.999)
        with pytest.raises(LabelerError, match="^need at least 64 windows, .*; got 100$"):
            train_autoencoder(np.zeros((100, 80)), cfg, seed=0)

    def test_constant_dataset_fits_to_zero(self):
        pattern = np.random.default_rng(5).normal(size=80)
        windows = np.tile(pattern, (96, 1))
        initial = np.mean(pattern**2)
        cfg = AutoencoderConfig(learning_rate=1e-3, max_epochs=300, patience=300)
        model, _ = train_autoencoder(windows, cfg, seed=30)
        final = model.reconstruction_mse(windows)
        assert final < 1e-6 * initial

    def test_random_data_loss_improves(self):
        windows = np.random.default_rng(123).normal(size=(500, 80))
        cfg = AutoencoderConfig(max_epochs=50, patience=50)
        _, hist = train_autoencoder(windows, cfg, seed=30)
        assert len(hist) == 50
        assert hist[-1][0] < hist[0][0]

    def test_same_seed_bit_identical(self):
        windows = np.random.default_rng(7).normal(size=(80, 80))
        cfg = AutoencoderConfig(max_epochs=3, patience=3)
        m1, _ = train_autoencoder(windows, cfg, seed=42)
        m2, _ = train_autoencoder(windows, cfg, seed=42)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.w, l2.w)
            assert np.array_equal(l1.b, l2.b)

    def test_matches_per_array_reference_bit_for_bit(self):
        windows = np.random.default_rng(21).normal(size=(300, 80))
        cfg = AutoencoderConfig(learning_rate=3e-3, max_epochs=40, patience=3)
        model, hist = train_autoencoder(windows, cfg, seed=5)
        ref, ref_hist = train_autoencoder_per_array(windows, cfg, seed=5)
        assert hist == ref_hist
        # the restore path ran: the best epoch is not the last
        vals = [v for _, v in hist]
        assert int(np.argmin(vals)) < len(vals) - 1
        assert np.array_equal(model.params, ref.params)
        for name, arr in ref.param_blocks().items():
            assert np.array_equal(model.param_blocks()[name], arr)

    def test_backward_skips_the_input_gradient(self):
        # enc0 adds its parameter gradients and makes no gradient on the
        # windows; every gradient has the bits of the full chain
        rng = np.random.default_rng(13)
        model = Autoencoder(AutoencoderConfig(), rng)
        batch = rng.normal(size=(32, 80))
        _, drecon = mse_loss(model.forward(batch), batch)
        d = drecon
        for layer in reversed(model.layers):
            d = layer.backward(d)
        assert d.shape == batch.shape
        chained = model.grads.copy()
        model.grads.fill(0.0)

        def refuse(dy):
            raise AssertionError("enc0 made an input gradient")

        model.layers[0].backward = refuse
        assert model.backward(drecon) is None
        assert np.array_equal(model.grads, chained)

    def test_inference_keeps_no_batch(self):
        # encode (label, label_dataset, tune) and reconstruction_mse (the
        # holdout score, tune) leave no layer holding their rows
        rng = np.random.default_rng(11)
        model = Autoencoder(AutoencoderConfig(), rng)
        windows = rng.normal(size=(257, 80))
        model.encode(windows)
        model.reconstruction_mse(windows)
        held = [a.shape for a in reachable_arrays(model) if a.shape[:1] == (257,)]
        assert held == []

    @pytest.mark.parametrize("config", [AutoencoderConfig(), AutoencoderConfig(
        hidden_sizes=(7,), latent_size=3)], ids=["default", "small"])
    def test_inference_matches_the_training_forward(self, config):
        # encode and reconstruction_mse drop each layer's cache as they go;
        # their bits are those of the cached training pass
        rng = np.random.default_rng(14)
        model = Autoencoder(config, rng)
        windows = rng.normal(size=(301, 80))
        recon = model.forward(windows)
        codes = model.encoder[-1]._cache[1].copy()
        assert np.array_equal(model.encode(windows), codes)
        assert model.reconstruction_mse(windows) == mse_loss(recon, windows)[0]

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, 2971])
    def test_blocked_encode_matches_whole_split_gemm(self, n):
        # encode runs the hidden layers over row blocks and the latent
        # layer over the whole split; its codes keep the bits of one gemm
        # per layer over the whole split, a one-row split's padded to two
        # rows (as is a 1-row tail block)
        rng = np.random.default_rng(n)
        model = Autoencoder(AutoencoderConfig(), rng)
        for windows in (rng.normal(scale=2e-3, size=(n, 80)), rng.normal(size=(n, 80))):
            want = windows
            for layer in model.encoder:
                want = np.dot(kernels.two_or_more_rows(want), layer.w)[:n] + layer.b
                if layer.relu:
                    want = np.maximum(want, 0.0)
            assert np.array_equal(model.encode(windows), want)

    def test_trained_model_holds_only_its_arena(self):
        windows = np.random.default_rng(12).normal(size=(300, 80))
        model, _ = train_autoencoder(windows, AutoencoderConfig(max_epochs=2), seed=3)
        for a in reachable_arrays(model):
            assert np.shares_memory(a, model.params) or np.shares_memory(a, model.grads)

    def test_early_stop_restores_best(self):
        windows = np.random.default_rng(9).normal(size=(100, 80))
        cfg = AutoencoderConfig(max_epochs=60, patience=5)
        model, hist = train_autoencoder(windows, cfg, seed=1)
        vals = [v for _, v in hist]
        holdout_n = max(1, round(0.1 * 100))
        assert holdout_n == 10
        # stopped early or exhausted the budget; either way the kept
        # parameters must score no worse than every recorded epoch
        assert len(hist) <= 60


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        pts = np.random.default_rng(3).normal(size=(40, 5))
        model = kmeans_fit(pts, k=1, seed=0)
        assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(11)
        radius = 0.1
        a = rng.normal(scale=radius, size=(30, 3)) + 0.0
        b = rng.normal(scale=radius, size=(30, 3)) + 100.0
        pts = np.vstack([a, b])
        model = kmeans_fit(pts, k=2, seed=7)
        means = np.array([a.mean(axis=0), b.mean(axis=0)])
        d = np.array(
            [[np.linalg.norm(c - m) for m in means] for c in model.centroids]
        )
        pairing = d.argmin(axis=1)
        assert sorted(pairing.tolist()) == [0, 1]
        assert d.min(axis=1).max() < radius
        labels = kmeans_assign(model, pts)
        assert len(np.unique(labels[:30])) == 1
        assert len(np.unique(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_matches_reference_lloyd(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(20, 2))
        seed = 5
        init = _kmeans_pp_init(pts, 3, np.random.default_rng(seed))
        ref_cents, ref_labels = lloyd_reference(pts, init)
        model = kmeans_fit(pts, k=3, seed=seed)
        assert np.allclose(model.centroids, ref_cents, atol=1e-10)
        assert np.array_equal(kmeans_assign(model, pts), ref_labels)

    def test_reference_agreement_many_datasets(self):
        rng = np.random.default_rng(777)
        for trial in range(10):
            n = int(rng.integers(12, 60))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 7))
            pts = rng.normal(size=(n, d))
            seed = int(rng.integers(10_000))
            init = _kmeans_pp_init(pts, k, np.random.default_rng(seed))
            ref_cents, ref_labels = lloyd_reference(pts, init)
            model = kmeans_fit(pts, k=k, seed=seed)
            assert np.allclose(model.centroids, ref_cents, atol=1e-8)
            assert np.array_equal(kmeans_assign(model, pts), ref_labels)

    def test_too_few_points(self):
        with pytest.raises(LabelerError, match="^need at least 6 points, got 5$"):
            kmeans_fit(np.zeros((5, 2)), k=6)

    def test_degenerate_data(self):
        pts = np.tile([1.0, 2.0], (20, 1))
        with pytest.raises(LabelerError, match="^fewer than 2 distinct points$"):
            kmeans_fit(pts, k=2)

    def test_assign_exact_centroid(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(50, 4))
        model = kmeans_fit(pts, k=4, seed=1)
        assert kmeans_assign(model, model.centroids).tolist() == [0, 1, 2, 3]

    def test_assign_tie_breaks_low(self):
        from fxppo.labeler import KMeansModel

        model = KMeansModel(
            np.array([[0.0, 1.0], [0.0, -1.0], [5.0, 0.0]]), 0.0, 1, 0
        )
        # origin is equidistant from centroids 0 and 1
        assert kmeans_assign(model, np.array([[0.0, 0.0]])).tolist() == [0]

    def test_assign_matches_brute_scan(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(60, 6))
        model = kmeans_fit(pts, k=5, seed=3)
        probes = rng.normal(size=(25, 6))
        labels = kmeans_assign(model, probes)
        for p, lab in zip(probes, labels):
            d = [np.sum((p - c) ** 2) for c in model.centroids]
            assert lab == int(np.argmin(d))

    @pytest.mark.parametrize("n", [1, kernels.ASSIGN_BLOCK_ROWS - 1, kernels.ASSIGN_BLOCK_ROWS,
                                   kernels.ASSIGN_BLOCK_ROWS + 1,
                                   3 * kernels.ASSIGN_BLOCK_ROWS + 7])
    def test_blocked_assign_matches_broadcast(self, n):
        rng = np.random.default_rng(n)
        # small integers: many points lie exactly as near to two centroids
        centroids = rng.integers(-2, 3, size=(12, 3)).astype(np.float64)
        centroids[5] = centroids[2]
        points = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
        points[0] = centroids[2]
        labels, inertia = kernels.kmeans_assign(points, centroids)
        expected, expected_inertia = assign_broadcast(points, centroids)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expected)
        assert labels[0] == 2  # a tie goes to the lowest index
        assert inertia == expected_inertia
        points = rng.normal(size=(n, 12))
        centroids = rng.normal(size=(12, 12))
        labels, inertia = kernels.kmeans_assign(points, centroids)
        expected, expected_inertia = assign_broadcast(points, centroids)
        assert np.array_equal(labels, expected)
        assert inertia == expected_inertia

    @pytest.mark.parametrize("seed", range(4))
    def test_silhouette_matches_distance_matrix(self, seed):
        rng = np.random.default_rng(seed)
        n, d = (400, 12) if seed == 0 else (int(rng.integers(3, 60)), int(rng.integers(1, 9)))
        points = rng.normal(size=(n, d))
        labels = rng.integers(0, seed + 3, size=n)
        labels[0] = labels.max() + 1  # a one-member cluster scores 0
        assert silhouette_score(points, labels) == silhouette_matrix(points, labels)

    def test_repair_empty_uses_farthest_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        labels = np.array([0, 0, 0], dtype=np.int64)
        cents = np.array([[11.0 / 3, 0.0], [np.nan, np.nan]])
        counts = np.array([3, 0], dtype=np.int64)
        repaired = _repair_empty(pts, labels, cents.copy(), counts)
        assert np.array_equal(repaired[1], [10.0, 0.0])

    def test_update_marks_empty_clusters_nan(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 0], dtype=np.int64)
        cents, counts = kernels.kmeans_update(pts, labels, 2)
        assert counts.tolist() == [2, 0]
        assert np.allclose(cents[0], [0.5, 0.5])
        assert np.all(np.isnan(cents[1]))

    def test_no_nan_centroids_after_fit(self):
        rng = np.random.default_rng(19)
        # tight blob plus a distant outlier exercises empty-cluster paths
        pts = np.vstack([rng.normal(scale=0.01, size=(30, 2)), [[50.0, 50.0]]])
        model = kmeans_fit(pts, k=4, seed=2)
        assert np.all(np.isfinite(model.centroids))


class TestLabeling:
    def test_empty_dataset(self):
        model = Autoencoder(AutoencoderConfig())
        from fxppo.labeler import KMeansModel

        km = KMeansModel(np.random.default_rng(0).normal(size=(12, 12)), 0, 1, 0)
        out = label_dataset(model, km, np.zeros((0, 80)))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_peak_memory_per_window(self):
        # at the production sizes: the encode holds one layer's input and
        # output at a time, 128 + 64 values a window at most, and k-means
        # assigns fixed row blocks
        rng = np.random.default_rng(3)
        ae = Autoencoder(AutoencoderConfig(), rng)
        km = KMeansModel(rng.normal(size=(12, 12)), 0.0, 1, 0)

        def peak(n):
            windows = rng.normal(size=(n, 80))
            label_dataset(ae, km, windows)
            tracemalloc.start()
            try:
                label_dataset(ae, km, windows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) - peak(1000) <= 1600 * (4000 - 1000)

    def test_labels_in_range_and_deterministic(self, tmp_path):
        rng = np.random.default_rng(31)
        windows = rng.normal(size=(300, 80))
        cfg = AutoencoderConfig(max_epochs=5, patience=5)
        ae, _ = train_autoencoder(windows, cfg, seed=30)
        codes = ae.encode(windows)
        km = kmeans_fit(codes, k=12, seed=30)
        labels = label_dataset(ae, km, windows)
        assert labels.shape == (300,)
        assert labels.min() >= 0 and labels.max() <= 11
        assert len(np.unique(labels)) == 12

        ae_path = tmp_path / "ae.bin"
        km_path = tmp_path / "km.bin"
        save_autoencoder(ae_path, ae)
        save_kmeans(km_path, km)
        ae2 = load_autoencoder(ae_path)
        km2 = load_kmeans(km_path)
        labels2 = label_dataset(ae2, km2, windows)
        assert np.array_equal(labels, labels2)
        assert km2.inertia == pytest.approx(km.inertia, abs=0)
        assert km2.seed == 30


def label_containers():
    """Bytes of a saved tiny autoencoder (6 -> 4 -> 3) and k-means model."""
    rng = np.random.default_rng(3)
    ae = Autoencoder(AutoencoderConfig(hidden_sizes=(4,), latent_size=3), rng, input_size=6)
    km = KMeansModel(rng.normal(size=(3, 3)), 1.5, 4, 30)
    with tempfile.TemporaryDirectory() as d:
        save_autoencoder(Path(d, "ae.bin"), ae)
        save_kmeans(Path(d, "kmeans.bin"), km)
        return {"ae": Path(d, "ae.bin").read_bytes(), "kmeans": Path(d, "kmeans.bin").read_bytes()}


CONTAINERS = label_containers()
LOADERS = {"ae": load_autoencoder, "kmeans": load_kmeans}


def meta_end(data):
    return 16 + struct.unpack("<I", data[12:16])[0]


def change(which, marker, offset, new):
    """(which, position, xor mask) that turns the byte `offset` into
    `marker` into `new`."""
    pos = CONTAINERS[which].index(marker) + offset
    return which, pos, CONTAINERS[which][pos] ^ ord(new)


class TestLoadLabelModels:
    def test_round_trip(self, tmp_path):
        for which, data in CONTAINERS.items():
            (tmp_path / which).write_bytes(data)
        ae = load_autoencoder(tmp_path / "ae")
        assert ae.input_size == 6 and ae.config.hidden_sizes == (4,)
        x = np.random.default_rng(0).normal(size=(5, 6))
        km = load_kmeans(tmp_path / "kmeans")
        assert (km.k, km.dim, km.inertia, km.n_iter, km.seed) == (3, 3, 1.5, 4, 30)
        assert label_dataset(ae, km, x).shape == (5,)

    @pytest.mark.parametrize("which, key, value", [
        ("ae", "kind", "kmeans"),
        ("ae", "input_size", 7),
        ("ae", "input_size", 9e9),
        ("ae", "input_size", True),
        ("ae", "config", {"hidden_sizes": [5], "latent_size": 3}),
        ("ae", "config", {"hidden_sizes": [4], "latent_size": 3, "input_size": 6}),
        ("ae", "config", {"hidden_sizes": [4], "latent_size": 0}),
        ("ae", "config", [4]),
        ("kmeans", "kind", "autoencoder"),
        ("kmeans", "k", 4),
        ("kmeans", "dim", "3"),
        ("kmeans", "inertia", None),
        ("kmeans", "n_iter", 1.5),
        ("kmeans", "seed", -1),
    ])
    def test_meta_that_does_not_fit_the_blocks(self, tmp_path, which, key, value):
        src, path = tmp_path / "src.bin", tmp_path / "bad.bin"
        src.write_bytes(CONTAINERS[which])
        meta, blocks = load_container(src)
        save_container(path, {**meta, key: value}, blocks)
        with pytest.raises(CheckpointError):
            LOADERS[which](path)

    @pytest.mark.parametrize("which", CONTAINERS)
    def test_missing_key_or_block(self, tmp_path, which):
        src, path = tmp_path / "src.bin", tmp_path / "bad.bin"
        src.write_bytes(CONTAINERS[which])
        meta, blocks = load_container(src)
        for bad_meta, bad_blocks in (
            ({k: v for k, v in meta.items() if k != "kind"}, blocks),
            ({k: v for k, v in meta.items() if k not in ("config", "inertia")}, blocks),
            (meta, dict(list(blocks.items())[:-1])),
        ):
            save_container(path, bad_meta, bad_blocks)
            with pytest.raises(CheckpointError):
                LOADERS[which](path)

    @given(
        st.sampled_from(sorted(CONTAINERS)).flatmap(lambda which: st.tuples(
            st.just(which),
            st.one_of(st.integers(0, meta_end(CONTAINERS[which]) + 128),
                      st.integers(0, len(CONTAINERS[which]) - 1)),
            st.integers(1, 255),
        )),
    )
    @example(change("ae", b'"input_size"', 3, "X"))
    @example(change("ae", b'"latent_size": 3', 15, "9"))
    @example(change("ae", b"enc0.w", 3, "1"))
    @example(change("kmeans", b'"k": 3', 6, "4"))
    @example(change("kmeans", b'"inertia"', 2, "X"))
    @example(change("kmeans", b"centroids", 0, "C"))
    @example(change("ae", b"enc0.w", 6, "6"))  # 54 dims, more than numpy allows
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_byte_change_loads_or_raises_checkpoint_error(self, tmp_path, case):
        which, pos, mask = case
        data = bytearray(CONTAINERS[which])
        data[pos % len(data)] ^= mask
        path = tmp_path / "model.bin"
        path.write_bytes(bytes(data))
        try:
            LOADERS[which](path)
        except CheckpointError:
            pass
