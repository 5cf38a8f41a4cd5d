"""Strided 1-D convolutional autoencoder: waveform -> latent grid -> waveform.

The encoder uses valid (no padding) strided convolutions; to keep the
frame count at floor(N / stride_product), ``encode`` right-pads the
waveform with zeros up to the exact input length those frames require.
``decode`` mirrors with transposed convolutions and trims the boundary
back to frames * stride_product samples. Encoding and waveform IG run the numpy
encoder (``encoder_forward``, input VJP ``encoder_vjp``); the autodiff tape serves
training and ``decode``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .audio import AudioClip, LengthError, NonFiniteError
from .checkpoint import Checkpoint
from .optim import Adam, AdamConfig

ENCODE_ROWS = 8  # waveforms per numpy encoder pass; bounds the activations one pass holds


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


def init_codec_params(config: CodecConfig, seed: int) -> dict:
    """He-uniform seeded initialization; returns name -> float32 ndarray."""
    rng = np.random.default_rng(seed)
    params = {}
    cin = 1
    for i, (c, k) in enumerate(zip(config.channels, config.kernel_sizes)):
        bound = np.sqrt(1.0 / (cin * k))
        params[f"enc{i}_w"] = rng.uniform(-bound, bound, size=(c, cin, k)).astype(np.float32)
        params[f"enc{i}_b"] = np.zeros(c, dtype=np.float32)
        cin = c
    dec_channels = list(reversed((1,) + config.channels[:-1]))
    cin = config.latent_channels
    for i, (c, k) in enumerate(zip(dec_channels, reversed(config.kernel_sizes))):
        bound = np.sqrt(1.0 / (cin * k))
        params[f"dec{i}_w"] = rng.uniform(-bound, bound, size=(cin, c, k)).astype(np.float32)
        params[f"dec{i}_b"] = np.zeros(c, dtype=np.float32)
        cin = c
    return params


def _wrap(params: dict, requires_grad: bool) -> dict:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def encode_tensor(x: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable encoder on (B, 1, N_padded); returns (B, L, T)."""
    h = x
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = ad.conv1d(h, pt[f"enc{i}_w"], config.strides[i])
        h = ad.add(h, ad.reshape(pt[f"enc{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return h


def decode_tensor(z: ad.Tensor, pt: dict, config: CodecConfig) -> ad.Tensor:
    """Differentiable decoder on (B, L, T); returns (B, 1, N_out) in [-1, 1]."""
    h = z
    n_layers = len(config.channels)
    for i in range(n_layers):
        h = ad.conv1d_transpose(h, pt[f"dec{i}_w"], tuple(reversed(config.strides))[i])
        h = ad.add(h, ad.reshape(pt[f"dec{i}_b"], (1, -1, 1)))
        if i < n_layers - 1:
            h = ad.elu(h)
    return ad.tanh(h)


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
    return np.pad(samples, [(0, 0)] * (samples.ndim - 1) + [(0, need - n)])


def _taps(w: np.ndarray, stride: int, dtype) -> np.ndarray:
    """A (C_out, C_in, K) kernel, zero-padded to m = ceil(K / S) taps of (S * C_in, C_out).

    Row j * C_in + c of tap a weighs channel c of sample a * S + j of a window,
    which is row j * C_in + c of the window's a-th block of S channels-last samples.
    """
    cout, cin, k = w.shape
    m = -(-k // stride)
    wp = np.pad(w.astype(dtype), ((0, 0), (0, 0), (0, m * stride - k)))
    return wp.reshape(cout, cin, m, stride).transpose(2, 3, 1, 0).reshape(m, stride * cin, cout)


def _fit(h: np.ndarray, n: int) -> np.ndarray:
    """(B, N', C) cut or zero-padded along time to N samples."""
    return h[:, :n] if h.shape[1] >= n else np.pad(h, ((0, 0), (0, n - h.shape[1]), (0, 0)))


def encoder_forward(x: np.ndarray, params: dict, config: CodecConfig):
    """Encoder on padded (B, N) waveforms: latents (B, T, L) and each layer's input.

    Channels-last: a layer views its input as blocks of S samples, so a strided conv
    is one GEMM per tap over the blocks shifted by the tap index, plus bias and ELU.
    float64 input is computed in float64, anything else in float32.
    """
    dtype = np.float64 if x.dtype == np.float64 else np.float32
    h = np.asarray(x, dtype=dtype)[:, :, None]
    acts = []
    last = len(config.channels) - 1
    for i, (k, s) in enumerate(zip(config.kernel_sizes, config.strides)):
        acts.append(h)
        taps = _taps(params[f"enc{i}_w"], s, dtype)
        b, n, c = h.shape
        nout = (n - k) // s + 1
        nb = nout + len(taps) - 1
        blocks = _fit(h, nb * s).reshape(b, nb, s * c)
        out = blocks[:, :nout] @ taps[0]
        for a in range(1, len(taps)):
            out += blocks[:, a : a + nout] @ taps[a]
        out += params[f"enc{i}_b"].astype(dtype)
        h = ad.elu_array(out) if i < last else out
    return h, acts


def encoder_vjp(acts: list, g: np.ndarray, params: dict, config: CodecConfig) -> np.ndarray:
    """Gradient of sum(latents * g) w.r.t. the (B, N) waveforms, from ``encoder_forward``'s acts."""
    last = len(acts) - 1
    for i in range(last, -1, -1):
        if i < last:
            d = np.minimum(acts[i + 1], 0.0)  # elu'(x) = min(elu(x), 0) + 1
            d += 1.0
            g = np.multiply(d, g, out=d)
        s = config.strides[i]
        taps = _taps(params[f"enc{i}_w"], s, g.dtype)
        b, n, c = acts[i].shape
        nout = g.shape[1]
        nb = nout + len(taps) - 1
        gb = np.zeros((b, nb, s * c), dtype=g.dtype)
        for a, tap in enumerate(taps):
            gb[:, a : a + nout] += g @ tap.T
        g = _fit(gb.reshape(b, nb * s, c), n)
    return g[:, :, 0]


def encode(clip: AudioClip, params: dict, config: CodecConfig) -> LatentGrid:
    """Encode a clip to its T x L latent grid (T = floor(N / stride_product))."""
    z, _ = encoder_forward(pad_for_encode(clip.samples, config)[None], params, config)
    return LatentGrid(z[0])


def encode_batch(samples: np.ndarray, params: dict, config: CodecConfig) -> np.ndarray:
    """Encode (B, N) waveforms to (B, T, L) latents, ENCODE_ROWS waveforms per encoder pass."""
    x = pad_for_encode(samples, config)
    return np.concatenate([encoder_forward(x[i : i + ENCODE_ROWS], params, config)[0]
                           for i in range(0, max(len(x), 1), ENCODE_ROWS)])


def decode(z: LatentGrid, params: dict, config: CodecConfig) -> AudioClip:
    """Decode a latent grid to a waveform of frames * stride_product samples."""
    if z.channels != config.latent_channels:
        raise ad.DimensionError(
            f"latent has {z.channels} channels, decoder expects {config.latent_channels}"
        )
    zt = ad.Tensor(z.values.T[None, :, :])
    x = decode_tensor(zt, _wrap(params, False), config)
    out = x.data[0, 0, : z.frames * config.stride_product]
    return AudioClip(out, config.sample_rate)


def train_autoencoder(
    clips: np.ndarray,
    config: CodecConfig,
    train: CodecTrainConfig | None = None,
    seed: int = 0,
) -> Checkpoint:
    """Train the autoencoder on equal-length clips (M, N) by waveform MSE.

    Deterministic given (clips, config, train, seed).
    """
    train = train or CodecTrainConfig()
    clips = np.asarray(clips, dtype=np.float32)
    if clips.ndim != 2 or clips.shape[0] == 0:
        raise ValueError("training set must be a nonempty (M, N) array")
    x_all = pad_for_encode(clips, config)
    m = x_all.shape[0]
    rng = np.random.default_rng(seed)
    params_np = init_codec_params(config, seed)
    pt = _wrap(params_np, True)
    opt = Adam(pt, AdamConfig(lr=train.lr, beta1=train.beta1, beta2=train.beta2))
    epoch_losses = []
    for _epoch in range(train.epochs):
        perm = rng.permutation(m)
        total, count = 0.0, 0
        for start in range(0, m, train.batch_size):
            idx = perm[start : start + train.batch_size]
            xb = ad.Tensor(x_all[idx][:, None, :])
            z = encode_tensor(xb, pt, config)
            xh = decode_tensor(z, pt, config)
            diff = ad.add(xh, ad.scale(xb, -1.0))
            loss = ad.tmean(ad.mul(diff, diff))
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += float(loss.data) * len(idx)
            count += len(idx)
        epoch_losses.append(total / count)
    return Checkpoint(
        kind="codec",
        config=config.to_dict(),
        params={k: t.data for k, t in pt.items()},
        metadata={
            "seed": seed,
            "epochs": train.epochs,
            "final_loss": epoch_losses[-1],
            "initial_loss": epoch_losses[0],
        },
    )
