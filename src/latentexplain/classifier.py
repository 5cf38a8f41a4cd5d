"""Classifier head on latent grids.

Each latent frame is embedded through an ELU layer, the embeddings are
pooled over time, and a 2-layer perceptron maps the pooled vector to
class logits. The per-frame nonlinearity matters: raw latent frames
oscillate with the waveform and average out to near zero, so pooling
must happen after rectification.

Pooling is configurable: plain time mean, or mean plus max. The max
term makes short, localized events visible to the head — the mean of a
100 ms burst over a 1 s clip is tiny, its max is not — at the cost of
being much more robust to cell substitution. The chosen mode is stored
in the checkpoint as a constant ``pool_max`` gate so inference needs
only the parameter dict. The encoder stays frozen; this module only
ever sees latents.

The head runs on numpy for inference, IG and training alike: ``_head_from_preact``
is the forward after the first affine layer, worked in place through the
pre-activations in cache-sized tiles of rows, and ``_head_vjp`` its one backward,
from per-row logit cotangents. ``logits_from_latent`` is the same head on the
autodiff tape, kept as the reference the numpy head is tested against.

Training can optionally substitute random latent cells of one anchor
class with a supplied base grid (see ``train_classifier``); the head
then learns that base-valued cells carry no class evidence, which is
what makes explanation *removal* fall back to the anchor class instead
of an arbitrary one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError
from .checkpoint import Checkpoint
from .codec import LatentGrid
from .optim import AdamConfig, minibatch_adam


POOLINGS = ("mean", "mean-max")


@dataclass
class ClassifierConfig:
    num_classes: int
    latent_channels: int = 32
    hidden: int = 64
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 150
    pooling: str = "mean"  # one of POOLINGS
    # anchor-class substitution augmentation; active only when train_classifier
    # is also given a substitution base grid
    anchor_class: int | None = None
    substitution_max_ratio: float = 0.5

    def __post_init__(self):
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")


def classifier_param_shapes(config: ClassifierConfig) -> dict:
    """Name -> shape of every head tensor, in the order ``init_classifier_params`` draws them."""
    l, h, c = config.latent_channels, config.hidden, config.num_classes
    return {"w0": (l, h), "b0": (h,), "w1": (h, h), "b1": (h,), "w2": (h, c), "b2": (c,),
            "pool_max": (1,)}


def init_classifier_params(config: ClassifierConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in classifier_param_shapes(config).items():
        if name.startswith("w"):
            bound = np.sqrt(1.0 / shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    # constant gate, not trained: 1.0 adds the max-pool term
    params["pool_max"][0] = 1.0 if config.pooling == "mean-max" else 0.0
    return params


def logits_from_latent(z: ad.Tensor, pt: dict) -> ad.Tensor:
    """Differentiable head on a (B, T, L) latent tensor; returns (B, C) logits."""
    b, t, l = z.data.shape
    h = pt["w0"].data.shape[1]
    frames = ad.reshape(z, (b * t, l))
    emb = ad.reshape(
        ad.elu(ad.add(ad.matmul(frames, pt["w0"]), ad.reshape(pt["b0"], (1, -1)))), (b, t, h)
    )
    pooled = ad.tmean(emb, axis=1)
    gate = float(pt["pool_max"].data[0]) if "pool_max" in pt else 0.0
    if gate:
        pooled = ad.add(pooled, ad.scale(ad.tmax(emb, axis=1), gate))
    g = ad.elu(ad.add(ad.matmul(pooled, pt["w1"]), ad.reshape(pt["b1"], (1, -1))))
    return ad.add(ad.matmul(g, pt["w2"]), ad.reshape(pt["b2"], (1, -1)))


def _pool_gate(params: dict) -> float:
    return float(params["pool_max"][0]) if "pool_max" in params else 0.0


# Cells of the (B, T, H) pre-activations the head works through per tile: 2^17 cells
# (512 KB of float32). The tile bounds the head's scratch, so one latent IG call peaks
# near 1.2x its step buffer, not 2x. Per IG call at 1 BLAS thread (2 MB of L2 per core),
# 2^17 cells took 2.4-2.7 ms; 2^15 took 2.7-3.2, 2^19 2.9-3.2 and one whole-array pass 4.6-4.9.
_TILE_CELLS = 1 << 17


def _head_from_preact(pre: np.ndarray, params: dict, grad: bool = True):
    """The head after its first affine layer, on (B, T, H) frame pre-activations.

    Works through ``pre`` in place, in tiles of whole rows of about ``_TILE_CELLS``
    cells, with one tile-sized scratch in ``pre``'s memory layout. Per tile: the ELU,
    the time mean and, when a pool gate adds the max term, each channel's max. With
    ``grad``, the max is gathered at each channel's first-argmax frame, and the tile is
    then overwritten with elu'(pre) = expm1(min(pre, 0)) + 1 from the ELU's negative
    part, which equals min(elu(pre), 0) + 1 bit for bit. Without it (inference), the
    max comes from ``max`` and ``pre`` is left holding elu(pre).

    Returns ``pre``, each channel's first-argmax frame (B, H) (None without a gate or
    without ``grad``), the pooled embedding (B, H), the pre-activation of the hidden
    layer (B, H), its ELU and the logits (B, C): everything ``_head_vjp`` reads.
    """
    b, t, h = pre.shape
    gate = _pool_gate(params)
    pooled = np.empty((b, h), dtype=pre.dtype)
    arg = np.empty((b, h), dtype=np.intp) if gate and grad else None
    rows = max(1, _TILE_CELLS // max(1, t * h))
    scratch = np.empty_like(pre[:rows])
    for r in range(0, b, rows):
        tile, pool = pre[r : r + rows], pooled[r : r + rows]
        neg = scratch[: len(tile)]
        ad.elu_array(tile, out=tile, neg=neg)
        tile.mean(axis=1, out=pool)
        if gate and grad:
            top = tile.argmax(axis=1, out=arg[r : r + rows])
            pool += gate * np.take_along_axis(tile, top[:, None, :], axis=1)[:, 0]
        elif gate:
            pool += gate * tile.max(axis=1)
        if grad:
            np.add(neg, 1.0, out=tile)
    hidden = pooled @ params["w1"] + params["b1"]
    act = ad.elu_array(hidden)
    return pre, arg, pooled, hidden, act, act @ params["w2"] + params["b2"]


def _head_vjp(fwd: tuple, params: dict, d_logits: np.ndarray, grads: dict | None = None):
    """Backward of sum(logits * d_logits) through the head, from ``_head_from_preact``'s output.

    ``d_logits`` holds one cotangent row per row of pre-activations (IG passes one-hot
    rows). Returns d/d pooled (B, H), the ELU factor elu'(pre) (B, T, H) that the
    forward left in the pre-activation buffer, and the max-frame term: None without a
    pool gate, else each channel's first-argmax frame (B, H) and the ELU factor there.
    Given a ``grads`` dict, also stores the gradients of w1, b1, w2 and b2 there.
    """
    d_emb, arg, pooled, hidden, act, _ = fwd
    # elu'(x) = exp(min(x, 0))
    d_hidden = (d_logits @ params["w2"].T) * np.exp(np.minimum(hidden, 0.0))
    d_pooled = d_hidden @ params["w1"].T
    if grads is not None:
        grads.update(w1=pooled.T @ d_hidden, b1=d_hidden.sum(axis=0),
                     w2=act.T @ d_logits, b2=d_logits.sum(axis=0))
    if arg is None:
        return d_pooled, d_emb, None
    return d_pooled, d_emb, (arg, np.take_along_axis(d_emb, arg[:, None, :], axis=1)[:, 0])


def _preact_grad(d_pooled: np.ndarray, d_emb: np.ndarray, top, params: dict) -> np.ndarray:
    """Per-row d/d pre (B, T, H) from ``_head_vjp``'s output; overwrites ``d_emb``.

    The time mean spreads d_pooled over the T frames and the max pool adds
    gate * d_pooled at each channel's first-argmax frame.
    """
    g = np.multiply(d_emb, (d_pooled / np.float32(d_emb.shape[1]))[:, None, :], out=d_emb)
    if top is not None:
        g[np.arange(len(g))[:, None], top[0], np.arange(g.shape[2])] += \
            _pool_gate(params) * d_pooled * top[1]
    return g


def _onehot(target: int, rows: int, classes: int) -> np.ndarray:
    """(rows, classes) float32 cotangents that select the target logit in every row."""
    d = np.zeros((rows, classes), dtype=np.float32)
    d[:, target] = 1.0
    return d


def _logits_np(latents: np.ndarray, params: dict) -> np.ndarray:
    pre = latents @ params["w0"]
    pre += params["b0"]
    return _head_from_preact(pre, params, grad=False)[-1]


def classify(z: LatentGrid, params: dict) -> np.ndarray:
    """Softmax probabilities (C,) for one latent grid."""
    if z.channels != params["w0"].shape[0]:
        raise DimensionError(
            f"latent has {z.channels} channels, head expects {params['w0'].shape[0]}"
        )
    logits = _logits_np(z.values[None, :, :], params)
    return ad.softmax(logits, axis=1)[0]


def predict_batch(latents: np.ndarray, params: dict) -> np.ndarray:
    """Argmax class indices for (B, T, L) latents."""
    return _logits_np(latents, params).argmax(axis=1)


def _step_grads(latents: np.ndarray, labels: np.ndarray, params: dict):
    """Mean softmax cross-entropy of the head on (B, T, L) latents, and its parameter gradients."""
    frames = latents.reshape(-1, latents.shape[2])
    pre = frames @ params["w0"]
    pre += params["b0"]
    fwd = _head_from_preact(pre.reshape(len(latents), -1, pre.shape[1]), params)
    loss, d_logits = ad.softmax_cross_entropy_array(fwd[-1], labels)
    grads = {}
    d_pre = _preact_grad(*_head_vjp(fwd, params, d_logits, grads), params).reshape(pre.shape)
    grads.update(w0=frames.T @ d_pre, b0=d_pre.sum(axis=0))
    return float(loss), grads


def train_classifier(
    latents: np.ndarray,
    labels: np.ndarray,
    config: ClassifierConfig,
    seed: int = 0,
    substitution_base: np.ndarray | None = None,
) -> Checkpoint:
    """Train the head on (M, T, L) latents with integer labels; encoder untouched.

    When ``substitution_base`` (a (T, L) grid) is given and the config names
    an ``anchor_class``, each anchor-class sample in a batch has a random
    fraction (uniform up to ``substitution_max_ratio``) of its cells replaced
    by the base values. Anchor samples stay anchor-labeled under base
    substitution, so the head treats base-valued cells as evidence-free.

    Each step is the numpy head forward, softmax cross-entropy and head backward.
    The metadata keeps every epoch's mean loss.
    """
    latents = np.asarray(latents, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if latents.shape[0] == 0:
        raise ValueError("training set must be nonempty")
    bad = np.count_nonzero((labels < 0) | (labels >= config.num_classes))
    if bad:
        raise ValueError(f"{bad} labels outside [0, {config.num_classes})")
    if np.unique(labels).size < 2:
        raise ValueError("training set must contain at least 2 classes")
    augment = substitution_base is not None and config.anchor_class is not None
    if augment and substitution_base.shape != latents.shape[1:]:
        raise DimensionError(
            f"substitution base shape {substitution_base.shape} != latent shape {latents.shape[1:]}"
        )
    cells = latents.shape[1] * latents.shape[2]
    base_flat = substitution_base.reshape(-1) if augment else None
    rng = np.random.default_rng(seed)
    params = init_classifier_params(config, seed)

    def step(idx):
        batch = latents[idx]  # a copy: the substitution leaves ``latents`` as it is
        if augment:
            for j, gi in enumerate(idx):
                if labels[gi] != config.anchor_class:
                    continue
                n_sub = int(np.floor(rng.uniform(0, config.substitution_max_ratio) * cells + 0.5))
                if n_sub:
                    flat = rng.choice(cells, size=n_sub, replace=False)
                    batch[j].reshape(-1)[flat] = base_flat[flat]
        return _step_grads(batch, labels[idx], params)

    losses = minibatch_adam(params, step, len(latents), config.batch_size, config.epochs, rng,
                            AdamConfig(lr=config.lr))
    return Checkpoint(kind="classifier", config=asdict(config), params=params,
                      metadata={"seed": seed, **losses})


def evaluate_accuracy(latents: np.ndarray, labels: np.ndarray, params: dict) -> float:
    """Fraction of argmax predictions matching labels."""
    if latents.shape[0] == 0:
        raise ValueError("evaluation set must be nonempty")
    preds = predict_batch(latents, params)
    return float(np.mean(preds == np.asarray(labels)))
