"""Strided 1-D convolutional autoencoder: waveform -> latent grid -> waveform.

The encoder uses valid (no padding) strided convolutions; to keep the
frame count at floor(N / stride_product), ``encode`` right-pads the
waveform with zeros up to the exact input length those frames require.
``decode`` mirrors with transposed convolutions and trims the boundary
back to frames * stride_product samples.

Everything runs on numpy, channels-last, on the kernel pair in ``autodiff``:
``_conv`` (one GEMM per kernel tap over blocks of S samples) and its transpose
``_conv_t``. The encoder is ``_conv`` and its input VJP ``_conv_t``; the
decoder is ``_conv_t`` and its backward ``_conv``; ``_kernel_grad`` gives both
weight gradients. Encoding, waveform IG, ``decode`` and ``train_autoencoder``
call them directly and build no autodiff graph. ``encode_batch`` and waveform
IG run every encoder pass of one call on one ``EncoderWorkspace``: the taps
built once, and buffers that each pass reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import _conv, _conv_t, _kernel_grad, _taps, _zero_pad
from .audio import AudioClip, LengthError, NonFiniteError
from .checkpoint import Checkpoint
from .optim import AdamConfig, minibatch_adam

ENCODE_ROWS = 8  # waveforms per numpy encoder pass; bounds the buffers of a workspace


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
        if not (len(self.channels) == len(self.kernel_sizes) == len(self.strides)):
            raise ValueError("channels, kernel_sizes, strides must have equal length")
        if self.channels[-1] != self.latent_channels:
            raise ValueError("last channel width must equal latent_channels")

    @property
    def stride_product(self) -> int:
        p = 1
        for s in self.strides:
            p *= s
        return p

    def frames_for_length(self, n: int) -> int:
        return n // self.stride_product

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


def pad_for_encode(samples: np.ndarray, config: CodecConfig) -> np.ndarray:
    """Fit waveforms to the exact encoder input length; non-finite samples raise NonFiniteError."""
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if bad:
        raise NonFiniteError(f"waveform has {bad} non-finite samples of {samples.size}")
    n = samples.shape[-1]
    frames = config.frames_for_length(n)
    if frames < 1:
        raise LengthError(
            f"clip of {n} samples is shorter than one frame ({config.stride_product} samples)"
        )
    need = config.required_input_length(frames)
    if need <= n:
        return samples[..., :need]
    return _zero_pad(samples, need)


def _dtype(x: np.ndarray):
    """The encoder's compute dtype for ``x``: float64 input in float64, anything else in float32."""
    return np.float64 if x.dtype == np.float64 else np.float32


class EncoderWorkspace:
    """The encoder's taps and biases in one dtype and, given ``rows`` and the padded
    length ``n``, the buffers of its passes over up to ``rows`` waveforms.

    Per layer i: ``out[i]`` its output; ``scratch[i]``, of the same shape, which its tap
    products, its ELU's negative part and ``elu_vjp``'s factor take turns using; and
    ``gb[i]`` and ``gprod[i]``, the block gradient and tap product of its ``_conv_t``.
    A pass of b rows uses the first b rows of each. Without ``rows`` there are no
    buffers and every pass allocates its own.
    """

    def __init__(self, params: dict, config: CodecConfig, dtype=np.float32, rows: int = 0,
                 n: int = 0):
        self.taps, self.bias, self.out, self.scratch, self.gb, self.gprod = [], [], [], [], [], []
        cin = 1
        for i, (c, k, s) in enumerate(zip(config.channels, config.kernel_sizes, config.strides)):
            taps = _taps(params[f"enc{i}_w"], s, dtype)
            self.taps.append(taps)
            self.bias.append(params[f"enc{i}_b"].astype(dtype))
            n = (n - k) // s + 1
            for bufs, shape in ((self.out, (n, c)), (self.scratch, (n, c)),
                                (self.gb, (n + len(taps) - 1, s * cin)), (self.gprod, (n, s * cin))):
                bufs.append(np.empty((rows,) + shape, dtype=dtype) if rows else None)
            cin = c

    @staticmethod
    def view(bufs: list, i: int, b: int):
        """The first b rows of layer i's buffer in ``bufs``, or None without buffers."""
        return None if bufs[i] is None else bufs[i][:b]


def encoder_forward(x: np.ndarray | None, params: dict, config: CodecConfig,
                    ws: EncoderWorkspace | None = None, pre0: np.ndarray | None = None):
    """Encoder on padded (B, N) waveforms: latents (B, T, L) and each layer's input.

    Channels-last: each layer is ``_conv`` on its taps, plus bias and ELU.
    float64 input is computed in float64, anything else in float32. Runs on the
    buffers of ``ws`` where given; the latents and acts are then views of them, valid
    until its next pass. Given ``pre0``, layer 0's (B, T0, C0) pre-activation with its
    bias (waveform IG builds it in closed form), ``x`` is not read and layer 0 runs
    only its ELU; its input in the acts is None.
    """
    h = None if pre0 is not None else np.asarray(x, dtype=_dtype(x))[:, :, None]
    first = pre0 if h is None else h
    if ws is None:
        ws = EncoderWorkspace(params, config, first.dtype)
    b = len(first)
    acts = []
    last = len(config.channels) - 1
    for i, (k, s) in enumerate(zip(config.kernel_sizes, config.strides)):
        acts.append(h)
        out, scratch = ws.view(ws.out, i, b), ws.view(ws.scratch, i, b)
        if h is None:
            out = pre0
        else:
            out = _conv(h, ws.taps[i], s, (h.shape[1] - k) // s + 1, out, scratch)
            out += ws.bias[i]
        h = ad.elu_array(out, out=out, neg=scratch) if i < last else out
    return h, acts


def encoder_vjp(acts: list, g: np.ndarray, params: dict, config: CodecConfig,
                grads: dict | None = None, ws: EncoderWorkspace | None = None,
                pre0: bool = False):
    """Gradient of sum(latents * g) w.r.t. the (B, N) waveforms, from ``encoder_forward``'s acts.

    Given a ``grads`` dict, stores the gradients of the encoder's weights and biases
    there instead and returns None: training needs no waveform gradient. With ``pre0``,
    returns the (B, T0, C0) gradient w.r.t. layer 0's pre-activation and leaves out
    layer 0's transposed conv. Runs on the buffers of ``ws`` where given.
    """
    if ws is None:
        ws = EncoderWorkspace(params, config, g.dtype)
    b = len(g)
    last = len(acts) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = ad.elu_vjp(acts[i + 1], g, ws.view(ws.scratch, i, b))
        s, w = config.strides[i], params[f"enc{i}_w"]
        if grads is not None:
            grads[f"enc{i}_w"] = _kernel_grad(acts[i], g, s, w.shape[2])
            grads[f"enc{i}_b"] = g.sum(axis=(0, 1))
            if i == 0:
                return None
        if i == 0 and pre0:
            return g
        g = _conv_t(g, ws.taps[i], s, acts[i].shape[1], ws.view(ws.gb, i, b),
                    ws.view(ws.gprod, i, b))
    return g[:, :, 0]


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
    z, _ = encoder_forward(pad_for_encode(clip.samples, config)[None], params, config)
    return LatentGrid(z[0])


def encode_batch(samples: np.ndarray, params: dict, config: CodecConfig) -> np.ndarray:
    """Encode (B, N) waveforms to (B, T, L) latents, ENCODE_ROWS waveforms per encoder pass.

    The passes share one workspace; each pass's latents are copied out before the next.
    """
    x = pad_for_encode(samples, config)
    dtype = _dtype(x)
    ws = EncoderWorkspace(params, config, dtype, min(len(x), ENCODE_ROWS), x.shape[1])
    z = np.empty((len(x), config.frames_for_length(samples.shape[-1]), config.latent_channels),
                 dtype=dtype)
    for i in range(0, len(x), ENCODE_ROWS):
        z[i : i + ENCODE_ROWS] = encoder_forward(x[i : i + ENCODE_ROWS], params, config, ws)[0]
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
    """Waveform MSE of reconstructing exact-length (B, N) waveforms, and its parameter gradients."""
    z, enc_acts = encoder_forward(x, params, config)
    y, dec_acts = decoder_forward(z, params, config)
    diff = y - x
    grads = {}
    dz = _decoder_vjp(dec_acts, y, diff * (2.0 / diff.size), params, config, grads)
    encoder_vjp(enc_acts, dz, params, config, grads)
    return float(np.mean(diff * diff)), grads


def train_autoencoder(
    clips: np.ndarray,
    config: CodecConfig,
    train: CodecTrainConfig | None = None,
    seed: int = 0,
) -> Checkpoint:
    """Train the autoencoder on equal-length clips (M, N) by waveform MSE.

    Each step runs the numpy encoder and decoder, the MSE and tanh backward by hand,
    then the decoder's and the encoder's VJP for the parameter gradients. Deterministic
    given (clips, config, train, seed); the metadata keeps every epoch's mean loss.
    """
    train = train or CodecTrainConfig()
    clips = np.asarray(clips, dtype=np.float32)
    if clips.ndim != 2 or clips.shape[0] == 0:
        raise ValueError("training set must be a nonempty (M, N) array")
    x_all = pad_for_encode(clips, config)
    params = init_codec_params(config, seed)
    losses = minibatch_adam(
        params, lambda idx: _step_grads(x_all[idx], params, config), len(x_all),
        train.batch_size, train.epochs, np.random.default_rng(seed),
        AdamConfig(lr=train.lr, beta1=train.beta1, beta2=train.beta2),
    )
    return Checkpoint(kind="codec", config=config.to_dict(), params=params,
                      metadata={"seed": seed, **losses})
