"""Integrated-gradients attribution in latent space and input space, plus random baselines.

The attributed function is always the pre-softmax logit of the target
class. The path integral uses the midpoint Riemann rule with ``steps``
evaluation points between the baseline and the input. Waveform IG takes the
points in chunks of ``ENCODE_ROWS``, the order its sum follows; a chunk of at
least ``SPLIT_ROWS`` points runs as two halves of at least two rows, on the
caller and on the codec's one helper thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import DimensionError
from .codec import (ENCODE_ROWS, CodecConfig, LatentGrid, _conv, _conv_t, encoder_forward,
                    encoder_input_length, encoder_vjp, pass_workspaces, run_pass)
from .classifier import _head_from_preact, _head_vjp, _logits_np, _onehot, _pool_gate, _preact_grad

DEFAULT_IG_STEPS = 64

LATENT_IG = "latent-ig"
INPUT_IG = "input-ig"
RANDOM_LATENT = "random-latent"
RANDOM_INPUT = "random-input"


@dataclass
class AttributionMap:
    scores: np.ndarray  # (T, L) for latent methods, (N,) for input methods
    target_class: int
    method: str
    ig_steps: int | None = None
    _ranked: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def rank(self) -> np.ndarray:
        """int32 position of each flat cell in the stable descending order of the scores.

        The order comes from one sort of one uint64 key per cell. The high 32 bits
        are the float32 score's bits (after ``+ 0.0``, so -0.0 ties with +0.0),
        mapped to unsigned integers in score order and inverted, so a larger score
        gets a smaller key; the low 32 bits are the flat index, so equal scores go
        by ascending index. The keys all differ, and the low halves of the sorted
        keys are the stable descending order.

        Built once per scores array and cached. Ranking makes the array read-only,
        so an in-place write cannot leave the rank stale; binding a new array to
        ``scores`` ranks again. Non-finite scores have no rank and raise ValueError;
        scores that are not float32 raise TypeError.
        """
        cached = self._ranked
        if cached is not None and cached[0] is self.scores and not self.scores.flags.writeable:
            return cached[1]
        if self.scores.dtype != np.float32:
            raise TypeError(f"attribution scores must be float32, got {self.scores.dtype}")
        flat = self.scores.ravel()
        bad = flat.size - np.count_nonzero(np.isfinite(flat))
        if bad:
            raise ValueError(f"attribution map has {bad} non-finite scores of {flat.size}")
        bits = (flat + np.float32(0.0)).view(np.uint32)
        # sign set: the bits already grow as the score falls; sign clear: flip the rest
        high = bits ^ ((bits >> np.uint32(31)) - np.uint32(1)) & np.uint32(0x7FFFFFFF)
        keys = high.astype(np.uint64) << np.uint64(32) | np.arange(flat.size, dtype=np.uint64)
        rank = np.empty(flat.size, dtype=np.int32)
        rank[np.sort(keys) & np.uint64(0xFFFFFFFF)] = np.arange(flat.size, dtype=np.int32)
        self.scores.flags.writeable = False
        self._ranked = (self.scores, rank)
        return rank


def _midpoints(steps: int) -> np.ndarray:
    return ((np.arange(steps, dtype=np.float64) + 0.5) / steps).astype(np.float32)


def integrated_gradients_latent(
    z: LatentGrid,
    baseline: LatentGrid,
    params: dict,
    target: int,
    steps: int = DEFAULT_IG_STEPS,
) -> AttributionMap:
    """IG of the target logit w.r.t. the T x L latent grid.

    The path ``base + a * delta`` is linear and the head's first layer is a
    per-frame affine map, so the pre-activations at every step are
    ``P0 + a * dP`` and the forward needs two (T, H) matmuls. All steps share one
    pre-activation buffer, which the head turns into elu'(pre) in place. The
    backward is written out for the target logit; the per-step gradients are summed
    over the steps by one ``einsum`` before the one product with ``w0.T``.
    """
    if z.values.shape != baseline.values.shape:
        raise DimensionError(
            f"latent/baseline shape mismatch: {z.values.shape} vs {baseline.values.shape}"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta = z.values - baseline.values
    alphas = _midpoints(steps)
    w0t = params["w0"].T
    p0 = w0t @ baseline.values.T + params["b0"][:, None]  # (H, T)
    dp = w0t @ delta.T
    h, t = p0.shape
    # one (S, H, T) step buffer, so that the head's reductions over time run along rows;
    # the head works through it in place and leaves elu'(pre) there
    pre = np.multiply(alphas[:, None, None], dp, out=np.empty((steps, h, t), dtype=p0.dtype))
    pre += p0
    d_pooled, d_emb, top = _head_vjp(_head_from_preact(pre.transpose(0, 2, 1), params), params,
                                     _onehot(target, steps, params["w2"].shape[1]))
    # sum over steps of d logit / d pre, divided by S: the time mean spreads each
    # step's d_pooled over all T frames ...
    g_pre = np.einsum("sh,sth->th", d_pooled / np.float32(t * steps), d_emb)
    if top is not None:
        # ... and the max pool adds it at each step's first-argmax frame
        arg, at_max = top
        np.add.at(g_pre, (arg, np.arange(h)), (_pool_gate(params) / steps) * d_pooled * at_max)
    avg_grad = g_pre @ w0t
    return AttributionMap((delta * avg_grad).astype(np.float32), int(target), LATENT_IG, steps)


def integrated_gradients_input(
    x: np.ndarray,
    baseline: np.ndarray,
    codec_params: dict,
    codec_config: CodecConfig,
    cls_params: dict,
    target: int,
    steps: int = DEFAULT_IG_STEPS,
) -> AttributionMap:
    """IG of the target logit w.r.t. the waveform, through encoder + head.

    Layer 0 is linear and the path is ``base + a * delta``, so its pre-activation at each
    step is ``p0 + a * d0``, from two one-row convs per call. Per chunk of ENCODE_ROWS path
    points: the rest of the encoder forward, the head's backward for the target logit at
    each point, and the encoder's VJP down to layer 0's pre-activation, summed over the
    points. Layer 0's transposed conv then runs once, on that sum, back to all of the clip's
    samples: those past the encoder's input length score 0.

    A chunk of at least SPLIT_ROWS points runs as two halves at once, on the caller and on
    the codec's helper thread (``run_pass``), each on its own workspace of one build of the
    taps. No half has one row, whose head would round otherwise. The chunk is summed as one
    pass summed it: the first half's rows by ``sum(axis=0)``, then the second half's rows
    one at a time, so the maps do not depend on the split.
    """
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    baseline = np.asarray(baseline, dtype=np.float32).reshape(-1)
    if x.shape != baseline.shape:
        raise DimensionError(f"input/baseline length mismatch: {x.shape} vs {baseline.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pair = np.stack([baseline, x])
    n = encoder_input_length(pair, codec_config)
    pair[1] -= baseline  # (baseline, delta)
    w0, b0 = cls_params["w0"], cls_params["b0"]
    wss = pass_workspaces(codec_params, codec_config, min(steps, ENCODE_ROWS), n)
    taps0, s0, t0 = wss[0].taps[0], codec_config.strides[0], wss[0].out[0].shape[1]
    p0, d0 = _conv(pair[:, :n, None], taps0, s0, t0)
    p0 += wss[0].bias[0]
    alphas = _midpoints(steps)

    def vjp_rows(lo, hi, ws):
        """d logit / d layer 0's pre-activation at path points [lo, hi), one row each."""
        a = alphas[lo:hi]
        pre0 = np.multiply(a[:, None, None], d0, out=ws.out[0][: len(a)])
        pre0 += p0
        z, acts = encoder_forward(None, codec_config, ws, pre0)  # (b, T, L)
        fwd = _head_from_preact(z @ w0 + b0, cls_params)
        d_logits = _onehot(target, len(a), cls_params["w2"].shape[1])
        g_pre = _preact_grad(*_head_vjp(fwd, cls_params, d_logits), cls_params)
        return encoder_vjp(acts, g_pre @ w0.T, codec_config, ws)

    g0_sum = np.zeros_like(p0)
    for lo in range(0, steps, ENCODE_ROWS):
        first, *second = run_pass(vjp_rows, lo, min(lo + ENCODE_ROWS, steps), wss)
        chunk = first.sum(axis=0)
        for half in second:
            for row in half:
                chunk += row
        g0_sum += chunk
    grad_sum = _conv_t(g0_sum[None], taps0, s0, len(x))[0, :, 0]
    return AttributionMap(pair[1] * (grad_sum / steps), int(target), INPUT_IG, steps)


def random_attribution(shape, seed: int, method: str = RANDOM_LATENT) -> AttributionMap:
    """Seeded i.i.d. uniform scores; top-ratio of it is a uniform random subset."""
    rng = np.random.default_rng(seed)
    scores = rng.random(size=shape).astype(np.float32)
    return AttributionMap(scores=scores, target_class=-1, method=method)


def target_logit_latent(values: np.ndarray, params: dict, target: int) -> float:
    """Target-class logit of the head at one (T, L) latent; completeness oracle hook."""
    return float(_logits_np(values[None, :, :].astype(np.float32), params)[0, target])
