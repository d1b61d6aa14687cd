"""Unsupervised window labeler.

An autoencoder compresses each 80-value feature window down to a
12-value latent code, then k-means groups the codes into 12 clusters.
The cluster id becomes the prediction target for the policy network's
auxiliary head. Both models are fit on training windows only and frozen
before any evaluation data is labeled.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .checkpoint import is_count, is_number, load_checked, save_container
from .nn import Adam, DenseLayer, Net, ShapeMismatch, block_shapes, clear_caches, mse_loss


class LabelerError(Exception):
    pass


class DivergedLoss(LabelerError):
    pass


@dataclass
class AutoencoderConfig:
    """Architecture and training knobs for the window autoencoder; the
    input size is the windows' width."""

    hidden_sizes: tuple = (128, 64, 32)
    latent_size: int = 12
    learning_rate: float = 0.0000879678
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    holdout_fraction: float = 0.1

    def __post_init__(self):
        self.hidden_sizes = tuple(self.hidden_sizes)
        if not all(is_count(n) for n in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive integers")
        for name in ("latent_size", "batch_size", "max_epochs", "patience"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
        if not (is_number(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be > 0")
        if not (is_number(self.holdout_fraction) and 0 < self.holdout_fraction < 1):
            raise ValueError("holdout_fraction must lie in (0, 1)")


def _layer_table(input_size, config):
    """Every encoder layer, ``enc0`` to the latent code, then every decoder
    layer, ``dec0`` back to the input size; the last layer of each is linear."""
    sizes = [input_size, *config.hidden_sizes, config.latent_size]
    table = []
    for part, path in (("enc", sizes), ("dec", sizes[::-1])):
        for i, (n_in, n_out) in enumerate(zip(path, path[1:])):
            act = "identity" if i == len(path) - 2 else "relu"
            table.append((f"{part}{i}", DenseLayer, (n_in, n_out, act)))
    return table


# Rows per block of the encoder's hidden layers in `Autoencoder.encode`.
ENCODE_BLOCK_ROWS = 256


class Autoencoder(Net):
    """Symmetric dense autoencoder; decoder mirrors the encoder
    (`_layer_table`).

    Hidden layers use ReLU; the latent projection and the reconstruction
    output are linear so codes and outputs are unbounded. ``encoder`` and
    ``decoder`` are the two halves of ``layers``.

    ``forward`` is the training pass: each layer keeps its input and
    output for ``backward``. ``encode`` and ``reconstruction_mse`` are
    inference: each layer's cache is dropped as soon as the layer has run,
    and no layer holds the batch afterwards. `reconstruction_mse` runs each
    layer as one gemm over the whole batch. `encode` runs the encoder's
    hidden layers over blocks of ``ENCODE_BLOCK_ROWS`` rows, so only the
    last hidden layer's output is made for the whole batch, and the latent
    layer is still one gemm over the whole batch. The blocks keep the
    codes' bits: with OpenBLAS 0.3.31's SkylakeX kernel, a gemm at the
    default hidden sizes (80-128, 128-64, 64-32) gives each row the bits
    of the whole-batch gemm at every row count of two or more, and
    `DenseLayer.forward` pads a 1-row tail block to two rows. The 32-12
    latent gemm does not: over a few thousand rows, its rows differ from
    those of every smaller gemm.
    """

    def __init__(self, config, rng=None, input_size=80):
        self.config = config
        self.input_size = input_size
        super().__init__(_layer_table(input_size, config), rng)
        half = len(self.layers) // 2
        self.encoder, self.decoder = self.layers[:half], self.layers[half:]

    def _check(self, windows):
        x = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise ShapeMismatch(
                f"expected windows of size {self.input_size}, got {x.shape[1]}"
            )
        return x

    @staticmethod
    def _run(layers, x, keep):
        for layer in layers:
            x = layer.forward(x)
            if not keep:
                clear_caches((layer,))
        return x

    def encode(self, windows):
        x = self._check(windows)
        *hidden, latent = self.encoder
        if hidden:
            y = np.empty((x.shape[0], hidden[-1].out_size))
            for s in range(0, x.shape[0], ENCODE_BLOCK_ROWS):
                block = slice(s, s + ENCODE_BLOCK_ROWS)
                y[block] = self._run(hidden, x[block], keep=False)
            x = y
        return self._run([latent], x, keep=False)

    def forward(self, windows):
        return self._run(self.layers, self._check(windows), keep=True)

    def backward(self, dout):
        """Writes every parameter gradient. enc0 makes only its own:
        nothing reads the gradient on the windows."""
        d = dout
        for layer in self.layers[:0:-1]:
            d = layer.backward(d)
        self.layers[0].backward_params(d)

    def reconstruction_mse(self, windows):
        """`mse_loss` of the reconstruction, squared in place, without the
        gradient."""
        windows = self._check(windows)
        diff = self._run(self.layers, windows, keep=False)
        diff -= windows
        diff *= diff
        return float(np.mean(diff))


def train_autoencoder(windows, config=None, seed=0):
    """Fit the autoencoder with Adam on reconstruction MSE.

    A seeded 10% holdout drives early stopping: training stops when the
    holdout MSE has not improved for `patience` consecutive epochs, and
    the best-scoring parameters seen are restored. Returns the model and
    a per-epoch (train_mse, holdout_mse) history.
    """
    config = config or AutoencoderConfig()
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise ShapeMismatch(f"expected 2-D windows, got shape {windows.shape}")
    n = windows.shape[0]
    n_val = max(1, int(round(config.holdout_fraction * n)))
    if n < 2 * config.batch_size or n_val == n:
        raise LabelerError(
            f"need at least {2 * config.batch_size} windows, and one outside "
            f"the holdout; got {n}"
        )

    rng = np.random.default_rng(seed)
    model = Autoencoder(config, rng, windows.shape[1])
    opt = Adam(model.params, config.learning_rate)

    perm = rng.permutation(n)
    val_x = windows[perm[:n_val]]
    train_idx = perm[n_val:]

    best_val = np.inf
    best_params = model.params.copy()
    stale = 0
    history = []

    for epoch in range(config.max_epochs):
        order = rng.permutation(train_idx.shape[0])
        epoch_loss = 0.0
        for start in range(0, order.shape[0], config.batch_size):
            batch = windows[train_idx[order[start : start + config.batch_size]]]
            recon = model.forward(batch)
            loss, drecon = mse_loss(recon, batch)
            if not np.isfinite(loss):
                raise DivergedLoss(f"non-finite loss at epoch {epoch}")
            model.backward(drecon)
            opt.step(model.grads)
            epoch_loss += loss * batch.shape[0]
        train_mse = epoch_loss / train_idx.shape[0]
        val_mse = model.reconstruction_mse(val_x)
        if not np.isfinite(val_mse):
            raise DivergedLoss(f"non-finite holdout loss at epoch {epoch}")
        history.append((train_mse, val_mse))
        if val_mse < best_val:
            best_val = val_mse
            best_params[:] = model.params
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.params[:] = best_params
    return model, history


class KMeansModel:
    """Frozen centroids plus fit diagnostics."""

    def __init__(self, centroids, inertia, n_iter, seed):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.inertia = float(inertia)
        self.n_iter = int(n_iter)
        self.seed = int(seed)

    @property
    def k(self):
        return self.centroids.shape[0]

    @property
    def dim(self):
        return self.centroids.shape[1]


def _kmeans_pp_init(points, k, rng):
    """Seeded k-means++: spread the initial centroids out proportionally
    to squared distance from the already chosen ones."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # remaining points all coincide with chosen centroids; any
            # pick duplicates, so fall back to a uniform draw
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _repair_empty(points, labels, centroids, counts):
    """Re-seed each empty cluster at the point farthest from its own
    centroid; ties go to the lowest point index."""
    dists = np.sum((points - centroids[labels]) ** 2, axis=1)
    for j in np.flatnonzero(counts == 0):
        idx = int(np.argmax(dists))
        centroids[j] = points[idx]
        dists[idx] = -1.0
    return centroids


def kmeans_fit(points, k=12, seed=0, max_iters=300, tol=1e-8):
    """Lloyd's algorithm from a seeded k-means++ start.

    Stops when assignments repeat, the largest centroid movement drops
    below `tol`, or `max_iters` passes complete. Inertia is checked to
    be non-increasing across iterations; a violation is a bug, not a
    data problem, so it raises.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeMismatch(f"expected 2-D points, got shape {points.shape}")
    n = points.shape[0]
    if n < k:
        raise LabelerError(f"need at least {k} points, got {n}")
    if not np.all(np.isfinite(points)):
        raise LabelerError("points contain non-finite values")
    if np.unique(points, axis=0).shape[0] < k:
        raise LabelerError(f"fewer than {k} distinct points")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    prev_labels = None
    prev_inertia = np.inf
    labels = None
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iters + 1):
        labels, inertia = kernels.kmeans_assign(points, centroids)
        if inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise LabelerError(
                f"inertia increased at iteration {n_iter}: "
                f"{prev_inertia} -> {inertia}"
            )
        prev_inertia = inertia
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        new_centroids, counts = kernels.kmeans_update(points, labels, k)
        if np.any(counts == 0):
            new_centroids = _repair_empty(points, labels, new_centroids, counts)
        shift = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if shift < tol:
            labels, inertia = kernels.kmeans_assign(points, centroids)
            break

    for a in range(k):
        for b in range(a + 1, k):
            if np.array_equal(centroids[a], centroids[b]):
                raise LabelerError(f"centroids {a} and {b} collapsed together")
    return KMeansModel(centroids, inertia, n_iter, seed)


def kmeans_assign(model, points):
    """Nearest-centroid labels of (n, dim) points under squared Euclidean
    distance; ties break toward the lowest centroid index."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ShapeMismatch(f"expected points of shape (n, {model.dim}), got {pts.shape}")
    labels, _ = kernels.kmeans_assign(pts, model.centroids)
    return labels


def label_dataset(ae, km, windows):
    """Encode windows and assign cluster labels; no windows, no labels."""
    return kmeans_assign(km, ae.encode(windows))


def silhouette_score(points, labels):
    """Mean silhouette over all points, the plain O(n^2) definition:
    (nearest-other-cluster mean distance - own-cluster mean distance)
    over the max of the two. Single-member clusters score 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    if n < 2 or len(np.unique(labels)) < 2:
        raise LabelerError("silhouette needs >= 2 points in >= 2 clusters")
    uniq = np.unique(labels)
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_count = own.sum() - 1
        if own_count == 0:
            scores[i] = 0.0
            continue
        # row i of the distance matrix, made when it is read
        diff = points[i] - points
        diff *= diff
        dist = np.sqrt(np.sum(diff, axis=1))
        a = dist[own].sum() / own_count
        b = np.inf
        for lab in uniq:
            if lab == labels[i]:
                continue
            mask = labels == lab
            b = min(b, dist[mask].mean())
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def save_autoencoder(path, model):
    save_container(
        path,
        {"kind": "autoencoder", "input_size": model.input_size,
         "config": asdict(model.config)},
        model.param_blocks(),
    )


def _autoencoder_shapes(meta):
    if not is_count(meta["input_size"]):
        raise ValueError("input_size must be a positive integer")
    return block_shapes(_layer_table(meta["input_size"], AutoencoderConfig(**meta["config"])))


def load_autoencoder(path):
    """The autoencoder at ``path``, through `checkpoint.load_checked`."""
    meta, blocks = load_checked(path, "autoencoder", _autoencoder_shapes)
    model = Autoencoder(AutoencoderConfig(**meta["config"]), input_size=meta["input_size"])
    model.load_param_blocks(blocks)
    return model


def save_kmeans(path, model):
    meta = {
        "kind": "kmeans",
        "k": model.k,
        "dim": model.dim,
        "seed": model.seed,
        "inertia": model.inertia,
        "n_iter": model.n_iter,
    }
    save_container(path, meta, {"centroids": model.centroids})


def _kmeans_shapes(meta):
    if not (is_count(meta["k"]) and is_count(meta["dim"]) and is_number(meta["inertia"])
            and is_count(meta["n_iter"], 0) and is_count(meta["seed"], 0)):
        raise ValueError("k, dim, n_iter and seed must be integers and inertia a number")
    return {"centroids": (meta["k"], meta["dim"])}


def load_kmeans(path):
    """The k-means model at ``path``, through `checkpoint.load_checked`."""
    meta, blocks = load_checked(path, "kmeans", _kmeans_shapes)
    return KMeansModel(
        blocks["centroids"], meta["inertia"], meta["n_iter"], meta["seed"]
    )
