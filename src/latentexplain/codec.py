"""Strided 1-D convolutional autoencoder: waveform -> latent grid -> waveform.

The encoder uses valid (no padding) strided convolutions and reads the exact input length
of floor(N / stride_product) frames (``encoder_input_length``): each ``encoder_forward``
pass cuts or zero-pads its own rows to it, so no caller pads a copy of its input.
``decode`` mirrors with transposed convolutions and trims the boundary back to
frames * stride_product samples.

Everything runs on numpy, channels-last, on the kernel pair in ``autodiff``:
``_conv`` (one GEMM per kernel tap over blocks of S samples) and its transpose
``_conv_t``. The encoder is ``_conv`` and its input VJP ``_conv_t``; the
decoder is ``_conv_t`` and its backward ``_conv``; ``_kernel_grad`` gives both
weight gradients. Encoding, waveform IG, ``decode`` and ``train_autoencoder``
call them directly and build no autodiff graph. Every encoder pass runs on an
``EncoderWorkspace`` of taps and reused buffers: ``encode_batch`` (``encode`` is one
row of it) and waveform IG hold theirs per call, a codec training step one per step.
``encode_batch`` encodes in float32. The encoder's VJP ends at layer 0's pre-activation;
waveform IG runs layer 0's transposed conv itself, once per call.

``encode_batch`` and waveform IG run each pass of at least ``SPLIT_ROWS`` rows as two row
halves at once (``run_pass``): the caller takes the first and the one worker of a
process-wide ``ThreadPoolExecutor`` the second, each on a workspace of its own, built on one
set of taps, so the two together hold the buffers of one workspace for the whole pass. No
half has one row: the head scores a 1-row batch through a matrix-vector product, whose last
bits differ from the same row's in a larger batch, so waveform IG maps would change. A
caller that finds the worker held by another pass runs both halves itself.
``encode_batch``'s latents do not depend on how rows are grouped into passes.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import _conv, _conv_t, _fit, _kernel_grad, _taps
from .audio import AudioClip, LengthError, NonFiniteError
from .checkpoint import Checkpoint
from .optim import AdamConfig, minibatch_adam

SPLIT_ROWS = 4  # fewest rows of a pass that runs as two halves, so that no half has one row


@dataclass
class LatentGrid:
    """T x L latent matrix produced by the encoder."""

    values: np.ndarray  # (T, L) float32

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2:
            raise ValueError(f"latent grid must be 2-D, got shape {v.shape}")
        self.values = v

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass
class CodecConfig:
    sample_rate: int = 16000
    channels: tuple = (16, 24, 32)
    kernel_sizes: tuple = (8, 8, 8)
    strides: tuple = (4, 4, 4)
    latent_channels: int = 32

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.kernel_sizes = tuple(self.kernel_sizes)
        self.strides = tuple(self.strides)
        if not (0 < len(self.channels) == len(self.kernel_sizes) == len(self.strides)):
            raise ValueError("channels, kernel_sizes, strides must be nonempty, of equal length")
        if self.channels[-1] != self.latent_channels:
            raise ValueError("last channel width must equal latent_channels")

    @property
    def stride_product(self) -> int:
        p = 1
        for s in self.strides:
            p *= s
        return p

    def required_input_length(self, frames: int) -> int:
        """Exact valid-conv input length that yields ``frames`` latent frames."""
        n = frames
        for k, s in zip(reversed(self.kernel_sizes), reversed(self.strides)):
            n = (n - 1) * s + k
        return n

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "channels": list(self.channels),
            "kernel_sizes": list(self.kernel_sizes),
            "strides": list(self.strides),
            "latent_channels": self.latent_channels,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CodecConfig":
        return cls(**d)


@dataclass
class CodecTrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 16
    epochs: int = 30


def codec_param_shapes(config: CodecConfig) -> dict:
    """Name -> shape of every codec tensor, in the order ``init_codec_params`` draws them."""
    shapes = {}
    cin = 1
    for i, (c, k) in enumerate(zip(config.channels, config.kernel_sizes)):
        shapes[f"enc{i}_w"], shapes[f"enc{i}_b"] = (c, cin, k), (c,)
        cin = c
    dec_channels = list(reversed((1,) + config.channels[:-1]))
    cin = config.latent_channels
    for i, (c, k) in enumerate(zip(dec_channels, reversed(config.kernel_sizes))):
        shapes[f"dec{i}_w"], shapes[f"dec{i}_b"] = (cin, c, k), (c,)
        cin = c
    return shapes


def init_codec_params(config: CodecConfig, seed: int) -> dict:
    """He-uniform seeded initialization; returns name -> float32 ndarray."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in codec_param_shapes(config).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float32)
            continue
        # fan-in C_in * K: an encoder kernel is (C_out, C_in, K), a decoder kernel (C_in, C_out, K)
        cin = shape[1] if name.startswith("enc") else shape[0]
        bound = np.sqrt(1.0 / (cin * shape[2]))
        params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return params


def encoder_input_length(samples: np.ndarray, config: CodecConfig) -> int:
    """The encoder's input length for waveforms of ``samples.shape[-1]`` samples; non-finite
    samples raise NonFiniteError, and waveforms shorter than one frame LengthError.

    A sum is non-finite whenever a sample is, so only then are the samples checked one by
    one (a sum of finite samples may overflow); finite input builds no mask."""
    with np.errstate(over="ignore", invalid="ignore"):
        suspect = not np.isfinite(samples.sum())
    if suspect and (bad := samples.size - np.count_nonzero(np.isfinite(samples))):
        raise NonFiniteError(f"waveform has {bad} non-finite samples of {samples.size}")
    n = samples.shape[-1]
    frames = n // config.stride_product
    if frames < 1:
        raise LengthError(
            f"clip of {n} samples is shorter than one frame ({config.stride_product} samples)"
        )
    return config.required_input_length(frames)


class EncoderWorkspace:
    """The encoder's taps and biases in ``dtype``, and the buffers of its passes over up to
    ``rows`` waveforms of input length ``n``; a pass of b rows uses their first b rows.

    Per layer i: ``out[i]`` its output, which holds the acts until the next pass; ``scratch[i]``,
    of the same shape, for its tap products, its ELU's negative part and ``elu_vjp``'s
    factor; and ``gb[i]`` and ``gprod[i]``, the block gradient and tap product of its
    ``_conv_t``. A layer is done with the last three before the next layer starts, so each
    kind is a view of one flat buffer sized for the largest layer.
    """

    def __init__(self, params: dict, config: CodecConfig, dtype, rows: int, n: int):
        self.taps, self.bias, self._row_shapes = [], [], []
        cin = 1
        for i, (c, k, s) in enumerate(zip(config.channels, config.kernel_sizes, config.strides)):
            self.taps.append(_taps(params[f"enc{i}_w"], s, dtype))
            self.bias.append(params[f"enc{i}_b"].astype(dtype))
            n = (n - k) // s + 1
            self._row_shapes.append(((n, c), (n + len(self.taps[i]) - 1, s * cin), (n, s * cin)))
            cin = c
        self._buffers(rows)

    def _buffers(self, rows: int) -> None:
        dtype = self.bias[0].dtype
        outs, gbs, gprods = ([(rows,) + shape for shape in kind] for kind in zip(*self._row_shapes))
        self.out = [np.empty(shape, dtype=dtype) for shape in outs]
        self.scratch, self.gb, self.gprod = (_views(kind, dtype) for kind in (outs, gbs, gprods))

    def resized(self, rows: int) -> "EncoderWorkspace":
        """A workspace on the same taps and biases, with buffers of its own for ``rows`` rows."""
        ws = copy.copy(self)
        ws._buffers(rows)
        return ws


def pass_workspaces(params: dict, config: CodecConfig, rows: int, n: int) -> list:
    """Float32 workspaces for ``run_pass`` over passes of up to ``rows`` rows of input length
    n: one under SPLIT_ROWS rows, else one per row half (``rows - rows // 2`` and
    ``rows // 2`` rows) on one build of the taps; together they hold the buffers of one
    ``rows``-row workspace. The first holds the larger half, so a pass too short to split
    after passes of 2 * SPLIT_ROWS rows fits it whole."""
    if rows < SPLIT_ROWS:
        return [EncoderWorkspace(params, config, np.float32, rows, n)]
    first = EncoderWorkspace(params, config, np.float32, rows - rows // 2, n)
    return [first, first.resized(rows // 2)]


_pool = None  # the executor of the helper thread, made by the first pass that splits
_held = threading.Lock()  # held by the one caller whose second half the helper runs


def _reset_helper() -> None:
    global _pool, _held
    _pool, _held = None, threading.Lock()


os.register_at_fork(after_in_child=_reset_helper)  # a child has no helper thread


def run_pass(fn, lo: int, hi: int, workspaces: list) -> tuple:
    """``fn(lo, hi, ws)`` over rows [lo, hi) of a pass, on ``pass_workspaces``' workspaces.

    Under SPLIT_ROWS rows the caller runs it whole on the first workspace. Otherwise the
    rows split into halves of at least two, ``hi - lo - (hi - lo) // 2`` rows first: the
    caller runs the first half on the first workspace while the helper thread runs the
    second on the second, or runs both itself if another caller holds the helper. Returns
    the results in row order; an exception in either half is raised once both have ended.
    """
    global _pool
    if hi - lo < SPLIT_ROWS:
        return (fn(lo, hi, workspaces[0]),)
    mid = hi - (hi - lo) // 2
    if not _held.acquire(blocking=False):
        return fn(lo, mid, workspaces[0]), fn(mid, hi, workspaces[1])
    try:
        if _pool is None:  # imported here: the import costs every command, most never split
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="encoder-half")
        second = _pool.submit(fn, mid, hi, workspaces[1])
        try:
            first = fn(lo, mid, workspaces[0])
        finally:
            second.exception()  # waits for the helper, also when the first half raised
    finally:
        _held.release()
    return first, second.result()


def _views(shapes, dtype) -> list:
    """One array of each shape, all views of one flat buffer sized for the largest."""
    flat = np.empty(max(map(math.prod, shapes)), dtype=dtype)
    return [flat[: math.prod(shape)].reshape(shape) for shape in shapes]


def encoder_forward(x: np.ndarray | None, config: CodecConfig, ws: EncoderWorkspace,
                    pre0: np.ndarray | None = None):
    """Encoder on (B, N) waveforms: latents (B, T, L) and each layer's input.

    Channels-last: each layer is ``_conv`` on the taps of ``ws``, plus bias and ELU, in the
    workspace's dtype and on its buffers; the latents and acts are views of them, valid
    until its next pass. Output lengths are the buffers': layer 0 reads (T0 - 1) * S + K
    samples, zero-padded past N. Given ``pre0``, layer 0's (B, T0, C0) pre-activation with
    its bias, ``x`` is not read and layer 0 runs only its ELU; its input in the acts is None.
    """
    h = None if pre0 is not None else np.asarray(x, dtype=ws.bias[0].dtype)[:, :, None]
    b = len(pre0 if h is None else h)
    acts = []
    last = len(config.channels) - 1
    for i, (k, s) in enumerate(zip(config.kernel_sizes, config.strides)):
        acts.append(h)
        out, scratch, t = ws.out[i][:b], ws.scratch[i][:b], ws.out[i].shape[1]
        if h is None:
            out = pre0
        else:
            out = _conv(h[:, : (t - 1) * s + k], ws.taps[i], s, t, out, scratch)
            out += ws.bias[i]
        h = ad.elu_array(out, out=out, neg=scratch) if i < last else out
    return h, acts


def encoder_vjp(acts: list, g: np.ndarray, config: CodecConfig, ws: EncoderWorkspace,
                grads: dict | None = None) -> np.ndarray:
    """Gradient of sum(latents * g) w.r.t. layer 0's (B, T0, C0) pre-activation, from
    ``encoder_forward``'s acts.

    Runs on the taps and buffers of the workspace of that forward pass; the gradient
    returned is a view of them, valid until its next pass. Given a ``grads`` dict, also
    stores the gradients of the encoder's weights and biases there. The VJP ends at
    layer 0's pre-activation: ``_conv_t`` of the result on layer 0's taps is the waveform
    gradient, which waveform IG takes once per call, on the sum over its steps.
    """
    b = len(g)
    last = len(acts) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = ad.elu_vjp(acts[i + 1], g, ws.scratch[i][:b])
        s = config.strides[i]
        if grads is not None:
            grads[f"enc{i}_w"] = _kernel_grad(acts[i], g, s, config.kernel_sizes[i])
            grads[f"enc{i}_b"] = g.sum(axis=(0, 1))
        if i > 0:
            g = _conv_t(g, ws.taps[i], s, acts[i].shape[1], ws.gb[i][:b], ws.gprod[i][:b])
    return g


def decoder_forward(z: np.ndarray, params: dict, config: CodecConfig):
    """Decoder on (B, T, L) latents: (B, N) waveforms in [-1, 1] and each layer's input.

    A (C_in, C_out, K) transposed-conv kernel has the layout of the (C_out, C_in, K)
    conv it transposes, so each layer is ``_conv_t`` on its taps, plus bias and ELU;
    the last layer ends in tanh instead.
    """
    h = z
    acts = []
    last = len(config.channels) - 1
    for i, s in enumerate(reversed(config.strides)):
        acts.append(h)
        w = params[f"dec{i}_w"]
        out = _conv_t(h, _taps(w, s, h.dtype), s, (h.shape[1] - 1) * s + w.shape[2])
        out += params[f"dec{i}_b"].astype(h.dtype)
        h = ad.elu_array(out, out=out) if i < last else np.tanh(out)
    return h[:, :, 0], acts


def _decoder_vjp(acts: list, y: np.ndarray, g: np.ndarray, params: dict, config: CodecConfig,
                 grads: dict) -> np.ndarray:
    """Backward of sum(y * g) through ``decoder_forward``, given its output y and acts.

    Stores the decoder's weight and bias gradients in ``grads``; returns the (B, T, L)
    latent gradient. Each layer's backward is ``_conv`` on the gradient.
    """
    g = (g * (1.0 - y * y))[:, :, None]
    last = len(acts) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = ad.elu_vjp(acts[i + 1], g)
        s, w = config.strides[last - i], params[f"dec{i}_w"]
        grads[f"dec{i}_w"] = _kernel_grad(g, acts[i], s, w.shape[2])
        grads[f"dec{i}_b"] = g.sum(axis=(0, 1))
        g = _conv(g, _taps(w, s, g.dtype), s, acts[i].shape[1])
    return g


def encode(clip: AudioClip, params: dict, config: CodecConfig) -> LatentGrid:
    """Encode a clip to its T x L latent grid (T = floor(N / stride_product))."""
    return LatentGrid(encode_batch(clip.samples[None], params, config)[0])


def encode_batch(samples: np.ndarray, params: dict, config: CodecConfig) -> np.ndarray:
    """Encode (B, N) waveforms of any float dtype to (B, T, L) latents in float32.

    Passes of SPLIT_ROWS waveforms, each as two 2-row halves on two threads (``run_pass``);
    a remainder too short to split joins the last pass. The passes share their
    workspaces, sized for the last pass; each half's latents are copied out before its
    next pass. No latent depends on how the rows are grouped into passes.
    """
    n = encoder_input_length(samples, config)
    edges = list(range(0, len(samples), SPLIT_ROWS)) + [len(samples)]
    if len(edges) > 2 and edges[-1] - edges[-2] < SPLIT_ROWS:
        del edges[-2]
    rows = edges[-1] - edges[-2] if len(edges) > 1 else 0
    wss = pass_workspaces(params, config, rows, n)
    z = np.empty((len(samples),) + wss[0].out[-1].shape[1:], dtype=np.float32)

    def encode_rows(lo, hi, ws):
        z[lo:hi] = encoder_forward(samples[lo:hi], config, ws)[0]

    for lo, hi in zip(edges, edges[1:]):
        run_pass(encode_rows, lo, hi, wss)
    return z


def decode(z: LatentGrid, params: dict, config: CodecConfig) -> AudioClip:
    """Decode a latent grid to a waveform of frames * stride_product samples."""
    if z.channels != config.latent_channels:
        raise ad.DimensionError(
            f"latent has {z.channels} channels, decoder expects {config.latent_channels}"
        )
    x, _ = decoder_forward(z.values[None], params, config)
    return AudioClip(x[0, : z.frames * config.stride_product], config.sample_rate)


def _step_grads(x: np.ndarray, params: dict, config: CodecConfig):
    """Waveform MSE of reconstructing exact-length (B, N) float32 or float64 waveforms, and
    its parameter gradients. The encoder forward and VJP share one workspace of these params.
    """
    ws = EncoderWorkspace(params, config, x.dtype, len(x), x.shape[1])
    z, enc_acts = encoder_forward(x, config, ws)
    y, dec_acts = decoder_forward(z, params, config)
    diff = y - x
    grads = {}
    dz = _decoder_vjp(dec_acts, y, diff * (2.0 / diff.size), params, config, grads)
    encoder_vjp(enc_acts, dz, config, ws, grads)
    return float(np.mean(diff * diff)), grads


def train_autoencoder(
    clips: np.ndarray,
    config: CodecConfig,
    train: CodecTrainConfig | None = None,
    seed: int = 0,
) -> Checkpoint:
    """Train the autoencoder on equal-length clips (M, N) by waveform MSE.

    Each step fits its minibatch to the encoder's input length, runs the numpy encoder and
    decoder, the MSE and tanh backward by hand, then both VJPs for the parameter gradients.
    Deterministic given (clips, config, train, seed); the metadata keeps every epoch's mean loss.
    """
    train = train or CodecTrainConfig()
    clips = np.asarray(clips, dtype=np.float32)
    if clips.ndim != 2 or clips.shape[0] == 0:
        raise ValueError("training set must be a nonempty (M, N) array")
    n = encoder_input_length(clips, config)
    params = init_codec_params(config, seed)
    losses = minibatch_adam(
        params, lambda idx: _step_grads(_fit(clips[idx], n), params, config), len(clips),
        train.batch_size, train.epochs, np.random.default_rng(seed),
        AdamConfig(lr=train.lr, beta1=train.beta1, beta2=train.beta2),
    )
    return Checkpoint(kind="codec", config=config.to_dict(), params=params,
                      metadata={"seed": seed, **losses})
