"""Plain-numpy references the checks compare the program against.

Nothing here calls into ``latentexplain``: the WAV parser, the head and
codec forwards, the stable top-k selection and the masks are written from
the documented formats and formulas, so a fault in the program's version
cannot hide in the check.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np


class WavInfo(NamedTuple):
    tag: int
    channels: int
    rate: int
    bits: int
    pcm: np.ndarray


def read_wav(path) -> WavInfo:
    """RIFF/WAVE chunks: the 'fmt ' fields and the 'data' body as little-endian int16."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", raw[pos + 8:pos + 24])
        elif cid == b"data":
            data = raw[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _byterate, _align, bits = fmt
    pcm = np.frombuffer(data, dtype="<i2") if bits == 16 else np.zeros(0, dtype="<i2")
    return WavInfo(tag, channels, rate, bits, pcm)


def pcm_to_float(pcm: np.ndarray) -> np.ndarray:
    """Samples in [-1, 1] of 16-bit PCM: pcm / 32767 in float32."""
    return np.clip(pcm.astype(np.float32) / np.float32(32767.0), -1.0, 1.0)


def quantize(samples: np.ndarray) -> np.ndarray:
    """16-bit PCM of samples clipped to [-1, 1], as the WAV format stores them."""
    s = np.clip(np.asarray(samples, dtype=np.float32), -1.0, 1.0).astype(np.float64)
    return np.clip(np.round(s * 32767.0), -32768, 32767).astype(np.int16)


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def head_logits(latents: np.ndarray, params: dict) -> np.ndarray:
    """Per-frame ELU embedding, time mean (+ gated time max), ELU layer, linear: (B, C)."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    emb = _elu(np.asarray(latents, dtype=np.float64) @ p["w0"] + p["b0"])
    pooled = emb.mean(axis=1)
    if "pool_max" in p and p["pool_max"][0]:
        pooled = pooled + p["pool_max"][0] * emb.max(axis=1)
    return _elu(pooled @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def _conv(x, w, stride):
    """Valid strided cross-correlation; x (B, Cin, N), w (Cout, Cin, K)."""
    k = w.shape[2]
    nout = (x.shape[2] - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], nout))
    for kk in range(k):
        taps = x[:, :, kk:kk + (nout - 1) * stride + 1:stride]
        out += np.einsum("bcn,oc->bon", taps, w[:, :, kk])
    return out


def _conv_transpose(x, w, stride):
    """Scatter-add adjoint of _conv; x (B, Cin, T), w (Cin, Cout, K)."""
    t, k = x.shape[2], w.shape[2]
    out = np.zeros((x.shape[0], w.shape[1], (t - 1) * stride + k))
    for kk in range(k):
        out[:, :, kk:kk + t * stride:stride] += np.einsum("bct,co->bot", x, w[:, :, kk])
    return out


def padded_length(n: int, kernel_sizes, strides) -> int:
    """Input length whose valid convolutions give exactly n // prod(strides) frames."""
    frames = n // int(np.prod(strides))
    for k, s in zip(reversed(kernel_sizes), reversed(strides)):
        frames = (frames - 1) * s + k
    return frames


def codec_mse(clips: np.ndarray, params: dict, kernel_sizes, strides) -> float:
    """Mean squared reconstruction error on zero-padded clips (B, N)."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    clips = np.asarray(clips, dtype=np.float64)
    need = padded_length(clips.shape[1], kernel_sizes, strides)
    x = np.zeros((clips.shape[0], 1, need))
    n = min(need, clips.shape[1])
    x[:, 0, :n] = clips[:, :n]
    layers = len(strides)
    h = x
    for i in range(layers):
        h = _conv(h, p[f"enc{i}_w"], strides[i]) + p[f"enc{i}_b"][None, :, None]
        if i < layers - 1:
            h = _elu(h)
    for i, s in enumerate(reversed(strides)):
        h = _conv_transpose(h, p[f"dec{i}_w"], s) + p[f"dec{i}_b"][None, :, None]
        if i < layers - 1:
            h = _elu(h)
    return float(np.mean((np.tanh(h) - x) ** 2))


def top_cells(scores: np.ndarray, ratio: float) -> np.ndarray:
    """Flat indices of the round-half-up(ratio * cells) highest scores, ties by lower index."""
    flat = np.asarray(scores).ravel()
    k = int(np.floor(ratio * flat.size + 0.5))
    order = np.lexsort((np.arange(flat.size), -flat.astype(np.float64)))
    return order[:k].astype(np.int64)


def keep(values: np.ndarray, base: np.ndarray, cells: np.ndarray) -> np.ndarray:
    out = np.array(base, copy=True).ravel()
    out[cells] = np.asarray(values).ravel()[cells]
    return out.reshape(np.shape(values))


def remove(values: np.ndarray, base: np.ndarray, cells: np.ndarray) -> np.ndarray:
    out = np.array(values, copy=True).ravel()
    out[cells] = np.asarray(base).ravel()[cells]
    return out.reshape(np.shape(values))


def derive_seed(run_seed: int, sample_index: int) -> int:
    """Per-sample seed of a random-baseline run: SeedSequence([run, sample]) state word 0."""
    return int(np.random.SeedSequence([run_seed, sample_index]).generate_state(1)[0])
